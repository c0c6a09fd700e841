#include "spmm/dense.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "runtime/thread_pool.hpp"
#include "spmm/row_block.hpp"

namespace igcn {

void
DenseMatrix::zero()
{
    std::fill(values.begin(), values.end(), 0.0f);
}

void
DenseMatrix::fillRandom(Rng &rng, float scale)
{
    for (auto &v : values)
        v = rng.nextFloat(scale);
}

size_t
DenseMatrix::fillRandomSparse(Rng &rng, double density, float scale)
{
    size_t nnz = 0;
    for (auto &v : values) {
        if (rng.nextBool(density)) {
            v = rng.nextFloat(scale);
            if (v == 0.0f)
                v = scale * 0.5f;
            nnz++;
        } else {
            v = 0.0f;
        }
    }
    return nnz;
}

size_t
DenseMatrix::countNonZeros() const
{
    return igcn::countNonZeros(values.data(), values.size());
}

double
maxAbsDiff(const DenseMatrix &a, const DenseMatrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        throw std::invalid_argument("shape mismatch in maxAbsDiff");
    double best = 0.0;
    for (size_t i = 0; i < a.data().size(); ++i)
        best = std::max(best,
                        std::fabs(static_cast<double>(a.data()[i]) -
                                  static_cast<double>(b.data()[i])));
    return best;
}

size_t
compactNonZeros(const float *a, size_t len, uint32_t *idx)
{
    // Clearing the sign bit leaves zero only for +0.0f and -0.0f, so
    // the test is exactly `a[k] != 0.0f` (NaN kept), the complement of
    // a scalar `if (a == 0.0f) continue;` skip, without a float
    // compare.
    size_t nnz = 0;
    for (size_t k = 0; k < len; ++k) {
        uint32_t bits = 0;
        std::memcpy(&bits, a + k, sizeof bits);
        idx[nnz] = static_cast<uint32_t>(k);
        nnz += (bits & 0x7fffffffu) != 0;
    }
    return nnz;
}

size_t
countNonZeros(const float *a, size_t len)
{
    // The same sign-bit-cleared test, with no store: vectorizes.
    size_t nnz = 0;
    for (size_t k = 0; k < len; ++k) {
        uint32_t bits = 0;
        std::memcpy(&bits, a + k, sizeof bits);
        nnz += (bits & 0x7fffffffu) != 0;
    }
    return nnz;
}

DenseMatrix
gemm(const DenseMatrix &a, const DenseMatrix &b)
{
    if (a.cols() != b.rows())
        throw std::invalid_argument("shape mismatch in gemm");
    DenseMatrix c(a.rows(), b.cols());

    // One contiguous row block per worker; each row's non-zero k are
    // compacted, then swept in ascending order per column block.
    KernelRegion region("gemm");
    globalPool().parallelFor(0, a.rows(),
                             [&](int, size_t i0, size_t i1) {
        std::vector<uint32_t> idx(a.cols());
        for (size_t i = i0; i < i1; ++i) {
            const float *arow = a.row(i);
            const size_t nnz =
                compactNonZeros(arow, a.cols(), idx.data());
            detail::weightedRowSum(
                b.cols(), nnz, [&](size_t t) { return arow[idx[t]]; },
                [&](size_t t) { return b.row(idx[t]); }, c.row(i));
        }
    }, /*min_per_worker=*/8);
    return c;
}

DenseMatrix
gemmTransposeA(const DenseMatrix &a, const DenseMatrix &b)
{
    if (a.rows() != b.rows())
        throw std::invalid_argument("shape mismatch in gemmTransposeA");
    DenseMatrix c(a.cols(), b.cols());

    // Workers own disjoint column slices [i0, i1) of A, i.e. disjoint
    // row blocks of C, accumulated in a private buffer (no false
    // sharing when C is small) and copied out once. Row r of A adds
    // a(r, i) * b(r, :) to C row i; rows r are taken in ascending
    // order, so every C element keeps its sequential chain. The B row
    // block stays in registers while the slice's non-zeros scatter.
    const size_t n = b.cols();
    KernelRegion region("gemm_at_b");
    globalPool().parallelFor(0, a.cols(),
                             [&](int, size_t i0, size_t i1) {
        std::vector<uint32_t> idx(i1 - i0);
        std::vector<float> slice((i1 - i0) * n, 0.0f);
        for (size_t r = 0; r < a.rows(); ++r) {
            const float *arow = a.row(r) + i0;
            const size_t nnz =
                compactNonZeros(arow, i1 - i0, idx.data());
            detail::forColumnBlocks(n, [&](auto width, size_t j) {
                using Block = detail::ColumnBlock<decltype(width)::value>;
                const Block brow = Block::at(b.row(r) + j);
                for (size_t t = 0; t < nnz; ++t) {
                    float *crow = slice.data() + idx[t] * n + j;
                    Block acc = Block::at(crow);
                    acc.addScaled(arow[idx[t]], brow);
                    acc.store(crow);
                }
            });
        }
        std::copy(slice.begin(), slice.end(), c.row(i0));
    }, /*min_per_worker=*/4);
    return c;
}

DenseMatrix
gemmTransposeB(const DenseMatrix &a, const DenseMatrix &b)
{
    if (a.cols() != b.cols())
        throw std::invalid_argument("shape mismatch in gemmTransposeB");
    DenseMatrix c(a.rows(), b.rows());

    // A * B^T is gemm against B^T with every k kept: no term is
    // skipped.
    DenseMatrix bt(b.cols(), b.rows());
    for (size_t j = 0; j < b.rows(); ++j)
        for (size_t k = 0; k < b.cols(); ++k)
            bt.at(k, j) = b.at(j, k);

    KernelRegion region("gemm_a_bt");
    globalPool().parallelFor(0, a.rows(),
                             [&](int, size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i) {
            const float *arow = a.row(i);
            detail::weightedRowSum(
                bt.cols(), a.cols(), [&](size_t t) { return arow[t]; },
                [&](size_t t) { return bt.row(t); }, c.row(i));
        }
    }, /*min_per_worker=*/8);
    return c;
}

} // namespace igcn
