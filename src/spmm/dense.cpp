#include "spmm/dense.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <type_traits>

#include "runtime/thread_pool.hpp"

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

namespace {

/**
 * Four float lanes (GCC/Clang vector extension: SSE2 on x86-64, plain
 * scalar code elsewhere). Lane-wise + and * round exactly as the
 * scalar operations do, and each lane is its own output column. An
 * explicit type, not an auto-vectorized float loop: GCC's -O3
 * unroll-and-jam turns a 32-wide scalar block into a scalar
 * store-reload loop several times slower.
 */
typedef float Lanes __attribute__((vector_size(4 * sizeof(float))));
constexpr size_t kLanes = 4;

/**
 * kW adjacent columns held in registers: kW / 4 Lanes when kW is a
 * multiple of four, else kW scalars.
 */
template <size_t kW>
struct ColumnBlock
{
    using Elem = std::conditional_t<kW % kLanes == 0, Lanes, float>;
    static constexpr size_t kStride = sizeof(Elem) / sizeof(float);
    static constexpr size_t kElems = kW / kStride;

    Elem v[kElems] = {};

    void load(const float *p)
    {
        for (size_t q = 0; q < kElems; ++q)
            std::memcpy(&v[q], p + q * kStride, sizeof(Elem));
    }

    void store(float *p) const
    {
        for (size_t q = 0; q < kElems; ++q)
            std::memcpy(p + q * kStride, &v[q], sizeof(Elem));
    }

    /** this += s * x: one rounded product and one rounded sum per
     *  column, as in the scalar `c += s * x`. */
    void addScaled(float s, const ColumnBlock &x)
    {
        const Elem sv = broadcast(s);
        for (size_t q = 0; q < kElems; ++q)
            v[q] += sv * x.v[q];
    }

    static Elem broadcast(float s)
    {
        if constexpr (kStride == 1)
            return s;
        else
            return Elem{s, s, s, s};
    }
};

/**
 * Calls f(std::integral_constant<size_t, W>{}, j) for consecutive
 * column blocks [j, j + W) that cover [0, n): 32 wide, then 16, 8 and
 * 4 wide, then one scalar block for the last 1-3 columns. A fixed
 * width lets a block live in registers; the lanes are independent
 * output columns, so no accumulation chain is split or reordered.
 */
template <typename F>
void
forColumnBlocks(size_t n, F &&f)
{
    size_t j = 0;
    for (; j + 32 <= n; j += 32)
        f(std::integral_constant<size_t, 32>{}, j);
    auto step = [&](auto width) {
        if (j + width <= n) {
            f(width, j);
            j += width;
        }
    };
    step(std::integral_constant<size_t, 16>{});
    step(std::integral_constant<size_t, 8>{});
    step(std::integral_constant<size_t, 4>{});
    switch (n - j) {
    case 3:
        f(std::integral_constant<size_t, 3>{}, j);
        break;
    case 2:
        f(std::integral_constant<size_t, 2>{}, j);
        break;
    case 1:
        f(std::integral_constant<size_t, 1>{}, j);
        break;
    default:
        break;
    }
}

/**
 * crow[j] = sum over t ascending of arow[idx[t]] * b(idx[t], j), from
 * +0.0f, for j in [0, b.cols()). Each column block accumulates in
 * registers and is stored once.
 */
void
combineRow(const float *arow, const uint32_t *idx, size_t nnz,
           const DenseMatrix &b, float *crow)
{
    forColumnBlocks(b.cols(), [&](auto width, size_t j) {
        using Block = ColumnBlock<decltype(width)::value>;
        Block acc;
        for (size_t t = 0; t < nnz; ++t) {
            Block brow;
            brow.load(b.row(idx[t]) + j);
            acc.addScaled(arow[idx[t]], brow);
        }
        acc.store(crow + j);
    });
}

} // namespace

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
            const size_t nnz =
                compactNonZeros(a.row(i), a.cols(), idx.data());
            combineRow(a.row(i), idx.data(), nnz, b, c.row(i));
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
            forColumnBlocks(n, [&](auto width, size_t j) {
                using Block = ColumnBlock<decltype(width)::value>;
                Block brow;
                brow.load(b.row(r) + j);
                for (size_t t = 0; t < nnz; ++t) {
                    float *crow = slice.data() + idx[t] * n + j;
                    Block acc;
                    acc.load(crow);
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

    // A * B^T is gemm against B^T with every k kept: the index list
    // is 0..k-1, and no term is skipped.
    DenseMatrix bt(b.cols(), b.rows());
    for (size_t j = 0; j < b.rows(); ++j)
        for (size_t k = 0; k < b.cols(); ++k)
            bt.at(k, j) = b.at(j, k);
    std::vector<uint32_t> all(a.cols());
    std::iota(all.begin(), all.end(), uint32_t{0});

    KernelRegion region("gemm_a_bt");
    globalPool().parallelFor(0, a.rows(),
                             [&](int, size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i)
            combineRow(a.row(i), all.data(), all.size(), bt, c.row(i));
    }, /*min_per_worker=*/8);
    return c;
}

} // namespace igcn
