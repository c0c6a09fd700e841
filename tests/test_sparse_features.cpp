/**
 * @file
 * Tests for the sparse feature path: the CsrFeatures container and
 * the sparseTimesDense / sparseTransposeTimesDense kernels. The load-bearing claims:
 *
 *  (a) fromArrays validates every structural invariant, and the
 *      container handles empty rows, all-zero matrices, and explicit
 *      stored zeros;
 *  (b) sparseTimesDense on the CSR image of a dense matrix is
 *      BIT-identical to gemm on that matrix — both accumulate each
 *      output element's non-zero terms in ascending-k order — at
 *      densities 0, 0.01 and 1.0, so the sparse first layer can
 *      replace the dense one with byte-equal logits;
 *  (c) every sparse kernel is bit-identical at IGCN_THREADS 1/4/8;
 *  (d) sparseTimesDense reports the same arithmetic Table-1 access
 *      profile as the dense-path CSR kernel (spmmPullRowWise) on the
 *      same logical matrix.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gcn/reference.hpp"
#include "graph/csr_features.hpp"
#include "runtime/thread_pool.hpp"
#include "spmm/spmm.hpp"

namespace igcn {
namespace {

bool
bitEqual(const DenseMatrix &a, const DenseMatrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

DenseMatrix
denseAtDensity(size_t rows, size_t cols, double density, uint64_t seed)
{
    Rng rng(seed);
    DenseMatrix m(rows, cols);
    if (density >= 1.0)
        m.fillRandom(rng, 1.0f);
    else if (density > 0.0)
        m.fillRandomSparse(rng, density, 1.0f);
    return m;
}

TEST(CsrFeatures, FromArraysValidatesInvariants)
{
    // A valid 3x4 matrix with an empty middle row adopts cleanly.
    CsrFeatures ok = CsrFeatures::fromArrays(
        3, 4, {0, 2, 2, 3}, {0, 3, 1}, {1.0f, 2.0f, 3.0f});
    EXPECT_EQ(ok.nnz(), 3u);
    EXPECT_EQ(ok.rowNnz(1), 0u);
    EXPECT_DOUBLE_EQ(ok.density(), 3.0 / 12.0);

    // rowPtr must have size num_rows + 1 ...
    EXPECT_THROW(CsrFeatures::fromArrays(3, 4, {0, 2, 3}, {0, 3, 1},
                                         {1.0f, 2.0f, 3.0f}),
                 std::invalid_argument);
    // ... start at zero ...
    EXPECT_THROW(CsrFeatures::fromArrays(3, 4, {1, 2, 2, 3},
                                         {0, 3, 1},
                                         {1.0f, 2.0f, 3.0f}),
                 std::invalid_argument);
    // ... be monotone ...
    EXPECT_THROW(CsrFeatures::fromArrays(3, 4, {0, 2, 1, 3},
                                         {0, 3, 1},
                                         {1.0f, 2.0f, 3.0f}),
                 std::invalid_argument);
    // ... and end at nnz.
    EXPECT_THROW(CsrFeatures::fromArrays(3, 4, {0, 2, 2, 2},
                                         {0, 3, 1},
                                         {1.0f, 2.0f, 3.0f}),
                 std::invalid_argument);
    // values must parallel colIdx.
    EXPECT_THROW(CsrFeatures::fromArrays(3, 4, {0, 2, 2, 3},
                                         {0, 3, 1}, {1.0f, 2.0f}),
                 std::invalid_argument);
    // Columns must be in range ...
    EXPECT_THROW(CsrFeatures::fromArrays(3, 4, {0, 2, 2, 3},
                                         {0, 4, 1},
                                         {1.0f, 2.0f, 3.0f}),
                 std::invalid_argument);
    // ... and strictly ascending within a row (no duplicates).
    EXPECT_THROW(CsrFeatures::fromArrays(3, 4, {0, 2, 2, 3},
                                         {3, 0, 1},
                                         {1.0f, 2.0f, 3.0f}),
                 std::invalid_argument);
    EXPECT_THROW(CsrFeatures::fromArrays(3, 4, {0, 2, 2, 3},
                                         {0, 0, 1},
                                         {1.0f, 2.0f, 3.0f}),
                 std::invalid_argument);

    // Explicit stored zeros are structural entries, not errors.
    CsrFeatures zeros = CsrFeatures::fromArrays(
        2, 2, {0, 1, 2}, {0, 1}, {0.0f, 0.0f});
    EXPECT_EQ(zeros.nnz(), 2u);
}

TEST(CsrFeatures, RowIterationAndStorageAccounting)
{
    CsrFeatures m = CsrFeatures::fromArrays(
        3, 5, {0, 2, 2, 5}, {1, 4, 0, 2, 3},
        {1.0f, 2.0f, 3.0f, 4.0f, 5.0f});
    FeatureRow r0 = m.row(0);
    ASSERT_EQ(r0.cols.size(), 2u);
    EXPECT_EQ(r0.cols[1], 4u);
    EXPECT_EQ(r0.vals[1], 2.0f);
    EXPECT_TRUE(m.row(1).cols.empty());
    EXPECT_EQ(m.row(2).vals.size(), 3u);
    EXPECT_EQ(m.storageBytes(),
              4 * sizeof(EdgeId) + 5 * sizeof(NodeId) +
                  5 * sizeof(float));

    // Degenerate shapes: empty matrix, all-empty rows.
    CsrFeatures empty;
    EXPECT_EQ(empty.nnz(), 0u);
    EXPECT_DOUBLE_EQ(empty.density(), 0.0);
    CsrFeatures hollow = CsrFeatures::fromArrays(
        4, 7, {0, 0, 0, 0, 0}, {}, {});
    EXPECT_EQ(hollow.nnz(), 0u);
    for (NodeId r = 0; r < 4; ++r)
        EXPECT_EQ(hollow.rowNnz(r), 0u);
}

TEST(CsrFeatures, DenseRoundTripAtAllDensities)
{
    for (double density : {0.0, 0.01, 1.0}) {
        DenseMatrix d = denseAtDensity(120, 300, density, 5);
        CsrFeatures s = denseToCsrFeatures(d);
        EXPECT_EQ(s.nnz(), d.countNonZeros());
        EXPECT_TRUE(bitEqual(csrFeaturesToDense(s), d))
            << "density " << density;
    }
}

TEST(CsrFeatures, CscViewMatchesBruteForceTranspose)
{
    DenseMatrix d = denseAtDensity(60, 80, 0.05, 11);
    CsrFeatures s = denseToCsrFeatures(d);
    const CsrFeatures::CscView &csc = s.csc();
    ASSERT_EQ(csc.colPtr.size(), 81u);
    EXPECT_EQ(csc.colPtr.back(), s.nnz());
    for (NodeId c = 0; c < 80; ++c) {
        for (EdgeId e = csc.colPtr[c]; e < csc.colPtr[c + 1]; ++e) {
            EXPECT_EQ(csc.valOf[e], d.at(csc.rowOf[e], c));
            if (e > csc.colPtr[c]) { // ascending row order per column
                EXPECT_LT(csc.rowOf[e - 1], csc.rowOf[e]);
            }
        }
    }
}

TEST(SparseKernels, SparseTimesDenseBitEqualsGemmAtAllDensities)
{
    // The tentpole equivalence: gemm skips zero a(i,k) entries and
    // accumulates ascending-k per output element; sparseTimesDense
    // accumulates stored entries in ascending column order. On the
    // CSR image of the same matrix the two are the same float
    // program, so equality is exact, not tolerance-based.
    Rng wrng(3);
    DenseMatrix w(300, 24);
    w.fillRandom(wrng, 1.0f);
    for (double density : {0.0, 0.01, 1.0}) {
        DenseMatrix d = denseAtDensity(150, 300, density, 17);
        CsrFeatures s = denseToCsrFeatures(d);
        EXPECT_TRUE(bitEqual(sparseTimesDense(s, w), gemm(d, w)))
            << "density " << density;
    }
}

TEST(SparseKernels, ExplicitStoredZerosKeepGemmParity)
{
    // Stored zeros contribute 0 * w to an accumulator that is never
    // negative zero, so they cannot perturb the sum gemm computes
    // without them.
    CsrFeatures s = CsrFeatures::fromArrays(
        2, 3, {0, 3, 4}, {0, 1, 2, 1},
        {0.5f, 0.0f, -1.25f, 0.0f});
    Rng wrng(5);
    DenseMatrix w(3, 8);
    w.fillRandom(wrng, 1.0f);
    EXPECT_TRUE(bitEqual(sparseTimesDense(s, w),
                         gemm(csrFeaturesToDense(s), w)));
}

TEST(SparseKernels, SparseTransposeTimesDenseMatchesDenseTranspose)
{
    DenseMatrix d = denseAtDensity(140, 90, 0.03, 23);
    CsrFeatures s = denseToCsrFeatures(d);
    Rng brng(7);
    DenseMatrix b(140, 12);
    b.fillRandom(brng, 1.0f);
    DenseMatrix got = sparseTransposeTimesDense(s, b);
    // Same gather order as the dense path's CSC kernel on the same
    // structure, so bit-equality holds against it too.
    EXPECT_TRUE(bitEqual(got, csrTransposeTimesDense(denseToCsr(d), b)));
    // And tolerance-equality against a naive X^T B.
    for (size_t j = 0; j < 90; ++j)
        for (size_t c = 0; c < 12; ++c) {
            double acc = 0;
            for (size_t r = 0; r < 140; ++r)
                acc += static_cast<double>(d.at(r, j)) * b.at(r, c);
            EXPECT_NEAR(got.at(j, c), acc, 1e-3);
        }
}

TEST(SparseKernels, BitIdenticalAcrossThreadCounts)
{
    // Both kernels must be exact at any IGCN_THREADS — the
    // serving determinism contract extends to the sparse path.
    Rng rng(13);
    Features x = makeFeatures(900, 600, 0.01, rng,
                              /*force_sparse=*/true);
    Rng wrng(17);
    DenseMatrix w(600, 16);
    w.fillRandom(wrng, 1.0f);
    DenseMatrix b(900, 16);
    b.fillRandom(wrng, 1.0f);

    setGlobalThreads(1);
    const DenseMatrix xw1 = sparseTimesDense(x.csr, w);
    const DenseMatrix xtb1 = sparseTransposeTimesDense(x.csr, b);
    for (int threads : {4, 8}) {
        setGlobalThreads(threads);
        EXPECT_TRUE(bitEqual(sparseTimesDense(x.csr, w), xw1))
            << threads << " threads";
        EXPECT_TRUE(
            bitEqual(sparseTransposeTimesDense(x.csr, b), xtb1))
            << threads << " threads";
    }
    setGlobalThreads(0);
}

TEST(SparseKernels, CountersMatchDensePathAccountingModel)
{
    // sparseTimesDense must report the pull-row-wise profile so the
    // accel models account sparse and dense first layers under one
    // model: aReads = nnz, one irregular full-row B pull and one MAC
    // per stored entry and channel, one streamed write per output
    // element. Cross-checked against the dense path's CSR kernel on
    // the same logical matrix.
    DenseMatrix d = denseAtDensity(100, 200, 0.05, 41);
    CsrFeatures s = denseToCsrFeatures(d);
    Rng wrng(43);
    DenseMatrix w(200, 8);
    w.fillRandom(wrng, 1.0f);

    SpmmCounters sparse_cnt;
    sparseTimesDense(s, w, &sparse_cnt);
    EXPECT_EQ(sparse_cnt.aReads, s.nnz());
    EXPECT_EQ(sparse_cnt.bIrregularReads, s.nnz() * 8);
    EXPECT_EQ(sparse_cnt.macOps, s.nnz() * 8);
    EXPECT_EQ(sparse_cnt.cStreamedWrites, 100u * 8u);
    EXPECT_EQ(sparse_cnt.bStreamedReads, 0u);
    EXPECT_EQ(sparse_cnt.cIrregularWrites, 0u);

    SpmmCounters dense_path_cnt;
    spmmPullRowWise(denseToCsr(d), w, &dense_path_cnt);
    EXPECT_EQ(sparse_cnt.aReads, dense_path_cnt.aReads);
    EXPECT_EQ(sparse_cnt.bIrregularReads,
              dense_path_cnt.bIrregularReads);
    EXPECT_EQ(sparse_cnt.macOps, dense_path_cnt.macOps);
    EXPECT_EQ(sparse_cnt.cStreamedWrites,
              dense_path_cnt.cStreamedWrites);
}

TEST(CsrFeatures, CscCacheFollowsLazyAdjunctRules)
{
    // Copying drops the cache (derived state, never identity);
    // equality ignores it; the copy rebuilds an identical view.
    DenseMatrix d = denseAtDensity(40, 30, 0.2, 53);
    CsrFeatures a = denseToCsrFeatures(d);
    (void)a.csc();
    CsrFeatures b = a;
    EXPECT_EQ(a, b);
    EXPECT_EQ(b.csc().colPtr, a.csc().colPtr);
    EXPECT_EQ(b.csc().rowOf, a.csc().rowOf);
    EXPECT_EQ(b.csc().valOf, a.csc().valOf);
}

} // namespace
} // namespace igcn
