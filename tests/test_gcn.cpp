/**
 * @file
 * GCN layer/model tests: adjacency normalization, the factored
 * (scaling + binary aggregation) identity, model configurations, and
 * deterministic feature/weight generation.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "gcn/layer.hpp"
#include "gcn/reference.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
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

TEST(Layer, RefreshNormalizedAdjacencyIsRemovalAware)
{
    // The update applier's exact epoch pattern, in the shrinking
    // direction: refresh a populated A_hat in place against a graph
    // with *fewer* edges. Rows must shrink correctly (stale tail
    // entries gone), the result must equal a from-scratch build, and
    // the cached CSC adjunct must have been dropped — a stale CSC
    // would make the push-style kernels read deleted edges.
    CsrGraph g = erdosRenyi(120, 6.0, 21);
    CsrMatrix a_hat = normalizedAdjacency(g);
    (void)a_hat.csc(); // populate the adjunct cache

    std::vector<Edge> removed;
    for (const auto &[u, v] : g.toEdges())
        if (u < v && removed.size() < 40)
            removed.push_back({u, v});
    CsrGraph g2 = g.withRemovedEdges(removed);

    refreshNormalizedAdjacency(a_hat, g2, degreeScaling(g2));
    CsrMatrix fresh = normalizedAdjacency(g2);
    EXPECT_EQ(a_hat.rowPtr, fresh.rowPtr);
    EXPECT_EQ(a_hat.colIdx, fresh.colIdx);
    EXPECT_EQ(a_hat.values, fresh.values);
    EXPECT_EQ(a_hat.nnz(), g2.numEdges() + g2.numNodes());

    // The refreshed matrix's CSC is rebuilt from the new arrays.
    const CscIndex &csc = a_hat.csc();
    EXPECT_EQ(csc.rowOf.size(), a_hat.nnz());
    EXPECT_EQ(csc.colPtr, fresh.csc().colPtr);
    EXPECT_EQ(csc.rowOf, fresh.csc().rowOf);
    EXPECT_EQ(csc.valOf, fresh.csc().valOf);
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
