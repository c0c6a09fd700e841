/**
 * @file
 * GCN layer/model tests: adjacency normalization, the factored
 * (scaling + binary aggregation) identity, model configurations, and
 * deterministic feature/weight generation.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "gcn/layer.hpp"
#include "gcn/reference.hpp"
#include "gcn/training.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/engine.hpp"
#include "spmm/spmm.hpp"

namespace igcn {
namespace {

constexpr double kTol = 2e-4;

TEST(Layer, DegreeScalingValues)
{
    CsrGraph g = starGraph(5);
    auto s = degreeScaling(g);
    EXPECT_FLOAT_EQ(s[0], 1.0f / std::sqrt(5.0f)); // degree 4 + 1
    EXPECT_FLOAT_EQ(s[1], 1.0f / std::sqrt(2.0f)); // degree 1 + 1
}

TEST(Layer, NormalizedAdjacencyRowStochasticProperty)
{
    // Rows of D^-1/2 (A+I) D^-1/2 sum to <= 1 with equality iff all
    // neighbors have the same degree; every diagonal entry present.
    CsrGraph g = erdosRenyi(100, 5.0, 42);
    CsrMatrix a = normalizedAdjacency(g);
    EXPECT_EQ(a.nnz(), g.numEdges() + g.numNodes());
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        bool has_diag = false;
        for (EdgeId e = a.rowPtr[u]; e < a.rowPtr[u + 1]; ++e) {
            EXPECT_GT(a.values[e], 0.0f);
            if (a.colIdx[e] == u)
                has_diag = true;
        }
        EXPECT_TRUE(has_diag) << "row " << u;
    }
}

TEST(Layer, FactoredEqualsWeighted)
{
    // S (A+I) S X == A_hat X: the identity the hardware exploits.
    CsrGraph g = erdosRenyi(150, 6.0, 7);
    Rng rng(9);
    DenseMatrix x(150, 12);
    x.fillRandom(rng);

    CsrMatrix a_hat = normalizedAdjacency(g);
    DenseMatrix expected = spmmPullRowWise(a_hat, x);

    std::vector<float> s = degreeScaling(g);
    DenseMatrix y = x;
    scaleRows(y, s);
    CsrMatrix a_bin = binaryAdjacencyWithSelfLoops(g);
    DenseMatrix z = spmmPullRowWise(a_bin, y);
    scaleRows(z, s);
    EXPECT_LT(maxAbsDiff(z, expected), kTol);
}

bool
rowsBitEqual(const float *a, const float *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(Layer, PullNormalizedRowsBitEqualsPullRowWiseRows)
{
    // pullNormalizedRows must reproduce spmmPullRowWise's rows over
    // the stored A_hat byte for byte: on an arbitrary row list
    // (unsorted, duplicates), through a column map into a permuted
    // B, and with a skip mask that leaves pre-filled rows untouched.
    // 3 channels run on the scalar column tail alone; 70 = 32 + 32 +
    // 4 + 2 crosses every block kind.
    const CsrGraph g = erdosRenyi(300, 6.0, 21);
    const std::vector<float> s = degreeScaling(g);
    const CsrMatrix a = normalizedAdjacency(g);
    Rng rng(9);
    std::vector<NodeId> rows;
    for (int i = 0; i < 90; ++i)
        rows.push_back(static_cast<NodeId>(rng.nextBounded(a.numRows)));
    rows.push_back(rows.front());

    // B' row perm[j] = B row j, so column j reads B' row perm[j].
    std::vector<NodeId> perm(a.numCols);
    std::iota(perm.begin(), perm.end(), NodeId{0});
    for (size_t i = perm.size() - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.nextBounded(i + 1)]);

    std::vector<uint8_t> skip(rows.size(), 0);
    uint64_t all_entries = 0, live_entries = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        const uint64_t row_nnz =
            a.rowPtr[rows[i] + 1] - a.rowPtr[rows[i]];
        ASSERT_EQ(normalizedRowEntries(g, rows[i]), row_nnz);
        all_entries += row_nnz;
        if (i % 3 == 0)
            skip[i] = 1;
        else
            live_entries += row_nnz;
    }

    for (size_t width : {size_t{3}, size_t{70}}) {
        DenseMatrix b(a.numCols, width);
        b.fillRandom(rng, 1.0f);
        DenseMatrix permuted(a.numCols, b.cols());
        for (NodeId j = 0; j < a.numCols; ++j)
            std::copy_n(b.row(j), b.cols(), permuted.row(perm[j]));

        for (int threads : {1, 4}) {
            setGlobalThreads(threads);
            const std::string ctx = " width " + std::to_string(width) +
                " threads " + std::to_string(threads);
            const DenseMatrix full = spmmPullRowWise(a, b);

            DenseMatrix c(rows.size(), b.cols());
            EXPECT_EQ(pullNormalizedRows(g, s, rows, b, {}, c),
                      all_entries) << ctx;
            // Rows that are not skipped are overwritten: stale NaNs
            // in the output must not reach the result.
            DenseMatrix mapped(rows.size(), b.cols(),
                               std::numeric_limits<float>::quiet_NaN());
            pullNormalizedRows(g, s, rows, permuted, perm, mapped);
            DenseMatrix masked(rows.size(), b.cols());
            for (size_t i = 0; i < rows.size(); ++i)
                if (skip[i])
                    std::fill_n(masked.row(i), b.cols(), 7.0f);
            EXPECT_EQ(pullNormalizedRows(g, s, rows, permuted, perm,
                                         masked, skip),
                      live_entries) << ctx;

            for (size_t i = 0; i < rows.size(); ++i) {
                const float *want = full.row(rows[i]);
                EXPECT_TRUE(rowsBitEqual(c.row(i), want, b.cols()))
                    << "row " << i << ctx;
                EXPECT_TRUE(rowsBitEqual(mapped.row(i), want, b.cols()))
                    << "mapped row " << i << ctx;
                if (skip[i]) {
                    for (size_t ch = 0; ch < b.cols(); ++ch)
                        ASSERT_EQ(masked.at(i, ch), 7.0f) << ctx;
                } else {
                    EXPECT_TRUE(
                        rowsBitEqual(masked.row(i), want, b.cols()))
                        << "masked row " << i << ctx;
                }
            }
        }
    }
    setGlobalThreads(0);
}

TEST(Layer, PullNormalizedRowsRejectsBadShapes)
{
    const CsrGraph g = pathGraph(4);
    const std::vector<float> s = degreeScaling(g);
    DenseMatrix b(4, 3);
    const std::vector<NodeId> rows{0, 2};
    DenseMatrix c(2, 3);
    EXPECT_NO_THROW(pullNormalizedRows(g, s, rows, b, {}, c));
    const std::vector<float> short_s{1.0f, 1.0f, 1.0f};
    EXPECT_THROW(pullNormalizedRows(g, short_s, rows, b, {}, c),
                 std::invalid_argument);
    DenseMatrix short_b(3, 3);
    EXPECT_THROW(pullNormalizedRows(g, s, rows, short_b, {}, c),
                 std::invalid_argument);
    const std::vector<NodeId> short_map{0, 1, 2};
    EXPECT_THROW(pullNormalizedRows(g, s, rows, b, short_map, c),
                 std::invalid_argument);
    const std::vector<uint8_t> short_skip{0};
    EXPECT_THROW(pullNormalizedRows(g, s, rows, b, {}, c, short_skip),
                 std::invalid_argument);
    DenseMatrix wrong_c(3, 3);
    EXPECT_THROW(pullNormalizedRows(g, s, rows, b, {}, wrong_c),
                 std::invalid_argument);
    const std::vector<NodeId> past_end{0, 4};
    EXPECT_THROW(pullNormalizedRows(g, s, past_end, b, {}, c),
                 std::out_of_range);
}

/**
 * rows x width of mixed-sign values with about one entry in four a
 * special one: NaN of either sign, +-0.0f or +-inf.
 */
DenseMatrix
reluInputs(size_t rows, size_t width, uint64_t seed)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float special[] = {nan, -nan, 0.0f, -0.0f, inf, -inf};
    Rng rng(seed);
    DenseMatrix m(rows, width);
    for (float &x : m.data()) {
        const uint64_t k = rng.nextBounded(24);
        x = k < 6 ? special[k] : rng.nextFloat(2.0f);
    }
    return m;
}

bool
sameBytes(const DenseMatrix &a, const std::vector<float> &b)
{
    return a.data().size() == b.size() &&
           std::memcmp(a.data().data(), b.data(),
                       b.size() * sizeof(float)) == 0;
}

TEST(Layer, ReluClamps)
{
    DenseMatrix m(1, 4);
    m.at(0, 0) = -1.0f;
    m.at(0, 1) = 2.0f;
    m.at(0, 2) = 0.0f;
    m.at(0, 3) = -0.5f;
    reluInPlace(m);
    EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(m.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(m.at(0, 3), 0.0f);

    // Byte-equal to the scalar `if (x < 0) x = 0` on NaN (either
    // sign, kept), -0.0f (kept), +-inf and every width 1-33; 8192
    // rows put the wider matrices on several workers.
    for (size_t width = 1; width <= 33; ++width) {
        const DenseMatrix in = reluInputs(8192, width, 100 + width);
        std::vector<float> want = in.data();
        for (float &x : want)
            if (x < 0.0f)
                x = 0.0f;
        for (int threads : {1, 4}) {
            setGlobalThreads(threads);
            DenseMatrix got = in;
            reluInPlace(got);
            EXPECT_TRUE(sameBytes(got, want))
                << "width " << width << " threads " << threads;
        }
    }
    setGlobalThreads(0);
}

TEST(Layer, ReluBackwardMasks)
{
    // Byte-equal to the scalar `if (pre <= 0) grad = 0`: a NaN
    // pre-activation keeps its gradient, +-0.0f zeroes it, and NaN,
    // -0.0f and +-inf gradients pass through where pre > 0.
    for (size_t width = 1; width <= 33; ++width) {
        const DenseMatrix grad = reluInputs(8192, width, 200 + width);
        const DenseMatrix pre = reluInputs(8192, width, 300 + width);
        std::vector<float> want = grad.data();
        for (size_t i = 0; i < want.size(); ++i)
            if (pre.data()[i] <= 0.0f)
                want[i] = 0.0f;
        for (int threads : {1, 4}) {
            setGlobalThreads(threads);
            DenseMatrix got = grad;
            reluBackwardInPlace(got, pre);
            EXPECT_TRUE(sameBytes(got, want))
                << "width " << width << " threads " << threads;
        }
    }
    setGlobalThreads(0);
    DenseMatrix grad(2, 3);
    EXPECT_THROW(reluBackwardInPlace(grad, DenseMatrix(3, 2)),
                 std::invalid_argument);
}

TEST(Models, ConfigurationsMatchPaper)
{
    const DatasetInfo &cora = datasetInfo(Dataset::Cora);
    auto gcn = modelConfig(Model::GCN, NetConfig::Algo, cora);
    ASSERT_EQ(gcn.numLayers(), 2);
    EXPECT_EQ(gcn.layers[0].inChannels, 1433);
    EXPECT_EQ(gcn.layers[0].outChannels, 16);
    EXPECT_EQ(gcn.layers[1].outChannels, 7);

    auto gcn_hy = modelConfig(Model::GCN, NetConfig::Hy, cora);
    EXPECT_EQ(gcn_hy.layers[0].outChannels, 128);

    const DatasetInfo &nell = datasetInfo(Dataset::Nell);
    auto gcn_nell = modelConfig(Model::GCN, NetConfig::Algo, nell);
    EXPECT_EQ(gcn_nell.layers[0].outChannels, 64);

    auto gin = modelConfig(Model::GIN, NetConfig::Algo, cora);
    EXPECT_EQ(gin.numLayers(), 3);

    EXPECT_EQ(modelName(Model::GraphSage, NetConfig::Hy), "GS-Hy");
}

TEST(Models, LayerDimsChain)
{
    for (Dataset d : kAllDatasets) {
        const DatasetInfo &info = datasetInfo(d);
        for (Model m : {Model::GCN, Model::GraphSage, Model::GIN}) {
            for (NetConfig net : {NetConfig::Algo, NetConfig::Hy}) {
                auto cfg = modelConfig(m, net, info);
                EXPECT_EQ(cfg.layers.front().inChannels,
                          info.numFeatures);
                EXPECT_EQ(cfg.layers.back().outChannels,
                          info.numClasses);
                for (size_t l = 1; l < cfg.layers.size(); ++l)
                    EXPECT_EQ(cfg.layers[l].inChannels,
                              cfg.layers[l - 1].outChannels);
            }
        }
    }
}

TEST(Reference, ForwardShapes)
{
    auto hi = hubAndIslandGraph({.numNodes = 120, .seed = 2});
    Rng rng(4);
    Features x = makeFeatures(120, 32, 0.2, rng);
    ModelConfig mc;
    mc.layers = {{32, 8}, {8, 3}};
    auto weights = makeWeights(mc, rng);
    DenseMatrix out = referenceForward(hi.graph, x, weights);
    EXPECT_EQ(out.rows(), 120u);
    EXPECT_EQ(out.cols(), 3u);
}

TEST(Reference, FactoredForwardEqualsReference)
{
    auto hi = hubAndIslandGraph({.numNodes = 200, .seed = 6});
    Rng rng(8);
    Features x = makeFeatures(200, 24, 0.3, rng);
    ModelConfig mc;
    mc.layers = {{24, 10}, {10, 5}};
    auto weights = makeWeights(mc, rng);
    DenseMatrix a = referenceForward(hi.graph, x, weights);
    DenseMatrix b = factoredForward(hi.graph, x, weights);
    EXPECT_LT(maxAbsDiff(a, b), kTol);
}

TEST(Reference, SparseFeaturesDeterministic)
{
    Rng rng1(77), rng2(77);
    Features a = makeFeatures(500, 1000, 0.005, rng1, true);
    Features b = makeFeatures(500, 1000, 0.005, rng2, true);
    ASSERT_TRUE(a.sparse);
    EXPECT_EQ(a.csr.colIdx, b.csr.colIdx);
    EXPECT_EQ(a.csr.values, b.csr.values);
    // Density lands near the request.
    double density = static_cast<double>(a.nnz()) / (500.0 * 1000.0);
    EXPECT_NEAR(density, 0.005, 0.002);
}

TEST(Reference, MakeFeaturesRejectsNonPositiveWidth)
{
    // The sparse branch stores at least one entry per row, drawn from
    // [0, num_features): with no columns that entry is out of range,
    // and a server built on it would read row 0 of a 0-row W0.
    Rng rng(5);
    EXPECT_THROW(makeFeatures(50, 0, 0.1, rng, /*force_sparse=*/true),
                 std::invalid_argument);
    EXPECT_THROW(makeFeatures(50, 0, 0.1, rng), std::invalid_argument);
    EXPECT_THROW(makeFeatures(50, -3, 0.1, rng), std::invalid_argument);
}

TEST(Reference, SparseFirstLayerForwardBitEqualsDense)
{
    // The tentpole equivalence at the model level: a forward pass
    // whose first layer consumes CSR features must produce the SAME
    // bytes as the dense pass on the densified image — gemm and
    // sparseTimesDense accumulate each output element's non-zero
    // terms in the same ascending-k order.
    auto hi = hubAndIslandGraph({.numNodes = 300, .seed = 21});
    Rng rng(19);
    Features dense;
    dense.dense = DenseMatrix(300, 64);
    dense.dense.fillRandomSparse(rng, 0.01, 1.0f);
    Features sparse;
    sparse.sparse = true;
    sparse.csr = denseToCsr(dense.dense);

    ModelConfig mc;
    mc.layers = {{64, 12}, {12, 4}};
    auto weights = makeWeights(mc, rng);

    DenseMatrix a = referenceForward(hi.graph, dense, weights);
    DenseMatrix b = referenceForward(hi.graph, sparse, weights);
    ASSERT_EQ(a.rows(), b.rows());
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          a.data().size() * sizeof(float)),
              0);

    DenseMatrix fa = factoredForward(hi.graph, dense, weights);
    DenseMatrix fb = factoredForward(hi.graph, sparse, weights);
    EXPECT_EQ(std::memcmp(fa.data().data(), fb.data().data(),
                          fa.data().size() * sizeof(float)),
              0);
}

TEST(Layer, ServedSparseFeaturesBitEqualDense)
{
    // The serving path's building block: an inference engine built
    // from CSR features must serve logits byte-equal to one built from
    // the densified image, for every node of the graph in one batch.
    auto hi = hubAndIslandGraph({.numNodes = 250, .seed = 33});
    Rng rng(23);
    DenseMatrix x(250, 40);
    x.fillRandomSparse(rng, 0.05, 1.0f);
    Features dense;
    dense.dense = x;
    Features sparse;
    sparse.sparse = true;
    sparse.csr = denseToCsr(x);

    ModelConfig mc;
    mc.layers = {{40, 10}, {10, 3}};
    auto weights = makeWeights(mc, rng);

    auto hub = std::make_shared<serve::GraphStateHub>(
        serve::makeGraphState(hi.graph, LocatorConfig{}));
    std::vector<serve::Request> batch(hi.graph.numNodes());
    for (NodeId v = 0; v < hi.graph.numNodes(); ++v) {
        batch[v].id = v;
        batch[v].node = v;
    }
    const auto a =
        serve::InferenceEngine(hub, dense, weights).runBatch(batch);
    const auto b =
        serve::InferenceEngine(hub, sparse, weights).runBatch(batch);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].logits.size(), b[i].logits.size());
        EXPECT_EQ(std::memcmp(a[i].logits.data(), b[i].logits.data(),
                              a[i].logits.size() * sizeof(float)),
                  0)
            << "node " << i;
    }
}

TEST(Reference, NoLayersThrows)
{
    CsrGraph g = pathGraph(3);
    Features x;
    x.dense = DenseMatrix(3, 2);
    EXPECT_THROW(referenceForward(g, x, {}), std::invalid_argument);
}

TEST(Reference, WeightScaleBounded)
{
    ModelConfig mc;
    mc.layers = {{1024, 64}};
    Rng rng(5);
    auto w = makeWeights(mc, rng);
    float bound = 1.0f / std::sqrt(1024.0f);
    for (float v : w[0].data())
        EXPECT_LE(std::fabs(v), bound);
}

} // namespace
} // namespace igcn
