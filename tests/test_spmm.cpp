/**
 * @file
 * SpMM dataflow tests: all four of Figure 2's loop orders must
 * produce the same product as dense GEMM, with the access-counter
 * profile each dataflow is known for (Table 1).
 */

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "spmm/spmm.hpp"

namespace igcn {
namespace {

constexpr double kTol = 1e-4;

using SpmmFn = DenseMatrix (*)(const CsrMatrix &, const DenseMatrix &,
                               SpmmCounters *);

struct DataflowCase
{
    const char *name;
    SpmmFn fn;
};

const DataflowCase kDataflows[] = {
    {"pull-row-wise", &spmmPullRowWise},
    {"pull-inner-product", &spmmPullInnerProduct},
    {"push-column-wise", &spmmPushColumnWise},
    {"push-outer-product", &spmmPushOuterProduct},
};

class SpmmDataflowTest
    : public ::testing::TestWithParam<std::tuple<int, int, double>>
{};

TEST_P(SpmmDataflowTest, MatchesDenseReference)
{
    auto [n, channels, avg_deg] = GetParam();
    CsrGraph g = erdosRenyi(static_cast<NodeId>(n), avg_deg,
                            static_cast<uint64_t>(n * channels));
    CsrMatrix a = CsrMatrix::fromGraph(g);
    // Weighted values exercise the value path, not just the pattern.
    Rng vrng(7);
    for (float &v : a.values)
        v = vrng.nextFloat(2.0f);

    Rng rng(5);
    DenseMatrix b(n, channels);
    b.fillRandom(rng);
    DenseMatrix expected = gemm(a.toDense(), b);

    for (const DataflowCase &d : kDataflows) {
        SpmmCounters counters;
        DenseMatrix c = d.fn(a, b, &counters);
        EXPECT_LT(maxAbsDiff(c, expected), kTol) << d.name;
        EXPECT_EQ(counters.macOps, a.nnz() * channels) << d.name;
        // Row-wise and outer-product touch each non-zero once; the
        // per-channel loop orders re-read A every channel (the "Reuse
        // A" column of Table 1).
        const bool reads_a_once = d.fn == &spmmPullRowWise ||
            d.fn == &spmmPushOuterProduct;
        EXPECT_EQ(counters.aReads,
                  reads_a_once ? a.nnz() : a.nnz() * channels)
            << d.name << " aReads profile";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpmmDataflowTest,
    ::testing::Combine(::testing::Values(16, 100, 500),
                       ::testing::Values(1, 8, 33),
                       ::testing::Values(0.5, 4.0, 12.0)));

TEST(Spmm, AllDataflowsAgreeOnSameInput)
{
    // The four dataflows compute the same product Xo = A * B and may
    // only differ in their access counters. Cross-check the variants
    // directly against each other (not just via the dense reference)
    // on structurally distinct graphs, including empty rows and
    // isolated vertices.
    struct GraphCase
    {
        const char *name;
        CsrGraph graph;
    };
    const GraphCase cases[] = {
        {"hub-island", hubAndIslandGraph({.numNodes = 600,
                                          .seed = 3}).graph},
        {"sparse-er", erdosRenyi(400, 0.8, 21)},
        {"star", starGraph(64)},
        {"path", pathGraph(50)},
        {"isolated", CsrGraph::fromEdges(40, {{0, 1}, {2, 3}})},
    };
    for (const GraphCase &gc : cases) {
        CsrMatrix a = CsrMatrix::fromGraph(gc.graph);
        Rng vrng(31);
        for (float &v : a.values)
            v = vrng.nextFloat(2.0f);
        Rng rng(37);
        DenseMatrix b(gc.graph.numNodes(), 23);
        b.fillRandom(rng);

        SpmmCounters base_cnt;
        const DenseMatrix base = kDataflows[0].fn(a, b, &base_cnt);
        for (size_t d = 1; d < std::size(kDataflows); ++d) {
            SpmmCounters cnt;
            const DenseMatrix c = kDataflows[d].fn(a, b, &cnt);
            EXPECT_LT(maxAbsDiff(c, base), kTol)
                << kDataflows[d].name << " vs "
                << kDataflows[0].name << " on " << gc.name;
            // Identical arithmetic regardless of loop order.
            EXPECT_EQ(cnt.macOps, base_cnt.macOps)
                << kDataflows[d].name << " on " << gc.name;
        }

        // The transpose kernel on a symmetric adjacency pattern must
        // agree with the forward product of the transposed values.
        const DenseMatrix t = sparseTransposeTimesDense(a, b);
        EXPECT_LT(maxAbsDiff(t, spmmPullRowWise(denseToCsr([&] {
            DenseMatrix at(a.numCols, a.numRows);
            for (NodeId r = 0; r < a.numRows; ++r)
                for (EdgeId e = a.rowPtr[r]; e < a.rowPtr[r + 1]; ++e)
                    at.at(a.colIdx[e], r) = a.values[e];
            return at;
        }()), b, nullptr)), kTol) << "transpose on " << gc.name;
    }
}

TEST(Spmm, AccessProfilesMatchTable1)
{
    // PULL methods read B irregularly; PUSH methods write C
    // irregularly — the crux of Table 1.
    CsrGraph g = erdosRenyi(200, 6.0, 99);
    CsrMatrix a = CsrMatrix::fromGraph(g);
    Rng rng(1);
    DenseMatrix b(200, 16);
    b.fillRandom(rng);

    SpmmCounters pull, push;
    spmmPullRowWise(a, b, &pull);
    spmmPushOuterProduct(a, b, &push);

    EXPECT_GT(pull.bIrregularReads, 0u);
    EXPECT_EQ(pull.cIrregularWrites, 0u);
    EXPECT_EQ(push.bIrregularReads, 0u);
    EXPECT_GT(push.cIrregularWrites, 0u);
}

TEST(Spmm, EmptyMatrix)
{
    CsrMatrix a;
    a.numRows = 4;
    a.numCols = 4;
    a.rowPtr.assign(5, 0);
    DenseMatrix b(4, 3, 1.0f);
    DenseMatrix c = spmmPullRowWise(a, b, nullptr);
    for (float v : c.data())
        EXPECT_EQ(v, 0.0f);
}

TEST(Spmm, ShapeMismatchThrows)
{
    CsrMatrix a = CsrMatrix::fromGraph(pathGraph(4));
    DenseMatrix b(5, 3);
    EXPECT_THROW(spmmPullRowWise(a, b, nullptr), std::invalid_argument);
}

TEST(Spmm, DenseToCsrRoundTrip)
{
    Rng rng(11);
    DenseMatrix m(13, 7);
    m.fillRandomSparse(rng, 0.3);
    CsrMatrix sparse = denseToCsr(m);
    EXPECT_EQ(sparse.toDense(), m);
    EXPECT_EQ(sparse.nnz(), m.countNonZeros());
}

TEST(Dense, GemmIdentity)
{
    Rng rng(3);
    DenseMatrix a(6, 6);
    a.fillRandom(rng);
    DenseMatrix eye(6, 6);
    for (int i = 0; i < 6; ++i)
        eye.at(i, i) = 1.0f;
    EXPECT_LT(maxAbsDiff(gemm(a, eye), a), kTol);
    EXPECT_LT(maxAbsDiff(gemm(eye, a), a), kTol);
}

TEST(Dense, GemmShapes)
{
    DenseMatrix a(2, 3, 1.0f), b(3, 4, 2.0f);
    DenseMatrix c = gemm(a, b);
    EXPECT_EQ(c.rows(), 2u);
    EXPECT_EQ(c.cols(), 4u);
    for (float v : c.data())
        EXPECT_FLOAT_EQ(v, 6.0f);
    EXPECT_THROW(gemm(b, a), std::invalid_argument);
}

TEST(Dense, MaxAbsDiffDetects)
{
    DenseMatrix a(2, 2, 1.0f), b(2, 2, 1.0f);
    EXPECT_EQ(maxAbsDiff(a, b), 0.0);
    b.at(1, 1) = 1.5f;
    EXPECT_NEAR(maxAbsDiff(a, b), 0.5, 1e-9);
}

TEST(Dense, FillRandomSparseDensity)
{
    Rng rng(17);
    DenseMatrix m(200, 200);
    size_t nnz = m.fillRandomSparse(rng, 0.1);
    EXPECT_EQ(nnz, m.countNonZeros());
    double density = static_cast<double>(nnz) / (200.0 * 200.0);
    EXPECT_NEAR(density, 0.1, 0.02);
}

} // namespace
} // namespace igcn
