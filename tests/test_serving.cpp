/**
 * @file
 * Serving subsystem tests — the acceptance criteria of the online
 * inference server:
 *
 *  (a) batched L-hop inference is bit-identical to one-at-a-time
 *      whole-graph reference inference for the requested nodes;
 *  (b) virtual-clock replay is deterministic: results, epochs and
 *      batch composition are identical at IGCN_THREADS 1/2/8 and
 *      per-request results identical across batch-cap settings;
 *  (c) interleaved updates never produce a torn read: concurrent
 *      readers + an update writer always see a complete epoch whose
 *      results match that epoch's whole-graph reference
 *      (ASan/UBSan-clean in the sanitizer CI job);
 *  (d) the contracts above survive edge *deletions*: mixed
 *      add/remove epochs stay bit-identical to the per-epoch
 *      whole-graph reference, and deletion-heavy traces replay
 *      deterministically across batch caps and thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <vector>

#include "gcn/reference.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "spmm/spmm.hpp"

namespace igcn {
namespace {

using namespace igcn::serve;

struct Workload
{
    CsrGraph graph;
    DenseMatrix features;
    std::vector<DenseMatrix> weights;
    Features asFeatures() const
    {
        Features f;
        f.dense = features;
        return f;
    }
};

Workload
makeWorkload(NodeId nodes, int num_features, int hidden, int classes,
             int layers, uint64_t seed)
{
    Workload w;
    w.graph = hubAndIslandGraph({.numNodes = nodes, .seed = seed}).graph;
    Rng rng(seed * 7 + 1);
    w.features = DenseMatrix(nodes, num_features);
    w.features.fillRandom(rng, 1.0f);
    ModelConfig mc;
    mc.layers.push_back({num_features, hidden});
    for (int l = 2; l < layers; ++l)
        mc.layers.push_back({hidden, hidden});
    mc.layers.push_back({hidden, classes});
    w.weights = makeWeights(mc, rng);
    return w;
}

bool
bitEqualRow(const std::vector<float> &logits, const DenseMatrix &ref,
            NodeId row)
{
    return logits.size() == ref.cols() &&
           std::memcmp(logits.data(), ref.row(row),
                       logits.size() * sizeof(float)) == 0;
}

std::vector<Request>
inferenceBatch(const std::vector<NodeId> &nodes)
{
    std::vector<Request> batch;
    for (size_t i = 0; i < nodes.size(); ++i) {
        Request r;
        r.kind = RequestKind::Inference;
        r.id = i;
        r.node = nodes[i];
        batch.push_back(std::move(r));
    }
    return batch;
}

// ------------------------------------------------------ criterion (a)

/** Targets (ascending) whose 1-hop set covers >= 90% of the graph. */
std::vector<NodeId>
wideBatch(const CsrGraph &g)
{
    std::vector<NodeId> targets;
    for (NodeId v = 0; v < g.numNodes(); v += 2)
        targets.push_back(v);
    return targets;
}

TEST(ServingEngine, BatchedLHopBitIdenticalToWholeGraphReference)
{
    for (int layers : {2, 3}) {
        Workload w = makeWorkload(1200, 24, 16, 7, layers, 5);
        DenseMatrix ref =
            referenceForward(w.graph, w.asFeatures(), w.weights);

        auto hub = std::make_shared<GraphStateHub>(
            makeGraphState(w.graph, LocatorConfig{}));
        InferenceEngine engine(hub, w.asFeatures(), w.weights);

        Rng rng(33);
        for (size_t batch_size : {size_t{1}, size_t{7}, size_t{33}}) {
            std::vector<NodeId> targets;
            for (size_t i = 0; i < batch_size; ++i)
                targets.push_back(static_cast<NodeId>(
                    rng.nextBounded(w.graph.numNodes())));
            if (batch_size >= 7)
                targets[1] = targets[0]; // duplicate target

            BatchExecInfo info;
            auto results =
                engine.runBatch(inferenceBatch(targets), &info);
            ASSERT_EQ(results.size(), targets.size());
            ASSERT_EQ(info.layerRows.size(),
                      static_cast<size_t>(layers));
            // The last layer runs on the unique targets alone.
            EXPECT_EQ(info.layerRows.back(), info.uniqueTargets);
            EXPECT_GT(info.aggregatedEntries(), 0u);
            for (const InferenceResult &r : results)
                EXPECT_TRUE(bitEqualRow(r.logits, ref, r.node))
                    << "layers " << layers << " node " << r.node;
        }

        // A batch whose 1-hop set covers nearly the whole graph (the
        // size that once fell back to a whole-graph pass) must
        // produce the same bits.
        BatchExecInfo info;
        auto results =
            engine.runBatch(inferenceBatch(wideBatch(w.graph)), &info);
        EXPECT_GE(info.layerRows[layers - 2],
                  w.graph.numNodes() * 9 / 10);
        for (const InferenceResult &r : results)
            EXPECT_TRUE(bitEqualRow(r.logits, ref, r.node));
    }
}

TEST(ServingEngine, DenseAndCsrFeatureLayoutsBitIdenticalOnEveryPath)
{
    // Pubmed-density (10%) features: the dense engine's layer-0
    // product goes through gemm's zero-skip compaction, the CSR
    // engine's through sparseTimesDense. Served logits must memcmp-
    // equal the whole-graph reference on a narrow batch and on a
    // batch whose 1-hop set covers most of the graph, with and
    // without the aggregation cache, at pool sizes 1 and 4.
    Workload w = makeWorkload(1000, 48, 16, 5, 2, 13);
    Rng rng(61);
    w.features.fillRandomSparse(rng, 0.1, 1.0f);
    Features dense = w.asFeatures();
    Features csr;
    csr.sparse = true;
    csr.csr = denseToCsr(w.features);
    ASSERT_GT(csr.csr.density(), 0.05);
    ASSERT_LT(csr.csr.density(), 0.15);
    const DenseMatrix ref = referenceForward(w.graph, dense, w.weights);

    auto hub = std::make_shared<GraphStateHub>(
        makeGraphState(w.graph, LocatorConfig{}));
    std::vector<NodeId> narrow;
    for (int i = 0; i < 12; ++i)
        narrow.push_back(
            static_cast<NodeId>(rng.nextBounded(w.graph.numNodes())));
    narrow[5] = narrow[2]; // duplicate target
    std::vector<NodeId> wide = wideBatch(w.graph);

    for (int threads : {1, 4}) {
        setGlobalThreads(threads);
        for (const Features *x : {&dense, &csr}) {
            for (const std::vector<NodeId> *targets :
                 {&narrow, &wide}) {
                for (bool cached : {false, true}) {
                    InferenceEngine engine(hub, *x, w.weights);
                    AggCache cache({.enabled = true});
                    if (cached)
                        engine.attachAggCache(&cache);
                    uint32_t hits = 0;
                    // The second pass serves the islands the first
                    // one filled.
                    for (int pass = 0; pass < 2; ++pass) {
                        BatchExecInfo info;
                        auto results = engine.runBatch(
                            inferenceBatch(*targets), &info);
                        ASSERT_EQ(results.size(), targets->size());
                        hits += info.cacheHits;
                        for (const InferenceResult &r : results)
                            EXPECT_TRUE(
                                bitEqualRow(r.logits, ref, r.node))
                                << (x->sparse ? "csr" : "dense")
                                << " targets " << targets->size()
                                << " cached " << cached << " threads "
                                << threads << " node " << r.node;
                    }
                    if (cached) {
                        EXPECT_GT(hits, 0u);
                    }
                }
            }
        }
    }
    setGlobalThreads(0);
}

TEST(ServingEngine, FrontierBatchesMatchReferenceOnEveryShape)
{
    // The frontier engine against referenceForward, memcmp per
    // target, over model depths 1-3; batches of 1, 7 and 33 targets
    // with duplicates, an isolated node, the top hub, one whole
    // island and a batch whose 1-hop set covers >= 90% of the graph;
    // dense and CSR features; cache off and on (the second pass must
    // hit); IGCN_THREADS 1 and 4.
    for (int layers : {1, 2, 3}) {
        Workload w = makeWorkload(900, 32, 12, 5, layers, 29);
        Rng rng(83);
        if (layers == 1) { // makeWorkload builds at least two
            ModelConfig mc;
            mc.layers = {{32, 5}};
            w.weights = makeWeights(mc, rng);
        }
        ASSERT_EQ(w.weights.size(), static_cast<size_t>(layers));
        // One extra node with no edges.
        const NodeId isolated = w.graph.numNodes();
        w.graph = CsrGraph::fromEdges(isolated + 1, w.graph.toEdges());
        w.features = DenseMatrix(isolated + 1, 32);
        w.features.fillRandomSparse(rng, 0.2, 1.0f);
        Features dense = w.asFeatures();
        Features csr;
        csr.sparse = true;
        csr.csr = denseToCsr(w.features);
        const DenseMatrix ref =
            referenceForward(w.graph, dense, w.weights);

        auto state = makeGraphState(w.graph, LocatorConfig{});
        NodeId hub_node = 0;
        for (NodeId v = 0; v < w.graph.numNodes(); ++v)
            if (w.graph.degree(v) > w.graph.degree(hub_node))
                hub_node = v;
        ASSERT_FALSE(state->islands.islands.empty());
        std::vector<std::vector<NodeId>> batches;
        for (size_t size : {size_t{1}, size_t{7}, size_t{33}}) {
            std::vector<NodeId> t;
            for (size_t i = 0; i < size; ++i)
                t.push_back(static_cast<NodeId>(
                    rng.nextBounded(w.graph.numNodes())));
            t.push_back(t.front()); // duplicate target
            batches.push_back(std::move(t));
        }
        batches.push_back({isolated});
        batches.push_back({hub_node, hub_node});
        const Island first = state->islands.islands.front();
        batches.emplace_back(first.nodes.begin(), first.nodes.end());
        batches.push_back(wideBatch(w.graph));
        ASSERT_GE(lHopFrontiers(w.graph, batches.back(), 1)[1].size(),
                  w.graph.numNodes() * 9 / 10);
        auto hub = std::make_shared<GraphStateHub>(state);

        for (int threads : {1, 4}) {
            setGlobalThreads(threads);
            for (const Features *x : {&dense, &csr}) {
                for (bool cached : {false, true}) {
                    InferenceEngine engine(hub, *x, w.weights);
                    AggCache cache({.enabled = true});
                    if (cached)
                        engine.attachAggCache(&cache);
                    uint64_t second_pass_hits = 0;
                    for (int pass = 0; pass < 2; ++pass) {
                        for (const auto &targets : batches) {
                            BatchExecInfo info;
                            auto results = engine.runBatch(
                                inferenceBatch(targets), &info);
                            ASSERT_EQ(results.size(), targets.size());
                            if (pass == 1)
                                second_pass_hits += info.cacheHits;
                            for (const InferenceResult &r : results)
                                ASSERT_TRUE(
                                    bitEqualRow(r.logits, ref, r.node))
                                    << "layers " << layers << " "
                                    << (x->sparse ? "csr" : "dense")
                                    << " cached " << cached
                                    << " threads " << threads
                                    << " batch of " << targets.size()
                                    << " node " << r.node;
                        }
                    }
                    if (cached) {
                        EXPECT_GT(second_pass_hits, 0u)
                            << "layers " << layers;
                    }
                }
            }
        }
        setGlobalThreads(0);
    }
}

TEST(ServingEngine, WeightShapeMismatchThrowsAtConstruction)
{
    // A weight chain that does not fit the features must be refused
    // at construction: batches run on the real-time scheduler thread,
    // where a shape error would terminate the process. Both breaks of
    // the chain, for either feature layout.
    Workload w = makeWorkload(300, 24, 8, 4, 2, 3);
    const Features x = w.asFeatures();
    Features csr;
    csr.sparse = true;
    csr.csr = denseToCsr(w.features);
    auto hub = std::make_shared<GraphStateHub>(
        makeGraphState(w.graph, LocatorConfig{}));

    std::vector<DenseMatrix> bad_w0 = w.weights;
    bad_w0[0] = DenseMatrix(20, 8); // rows != feature columns
    std::vector<DenseMatrix> bad_w1 = w.weights;
    bad_w1[1] = DenseMatrix(5, 4); // rows != W0 columns
    for (const auto *bad : {&bad_w0, &bad_w1}) {
        EXPECT_THROW(InferenceEngine(hub, csr, *bad),
                     std::invalid_argument);
        EXPECT_THROW(InferenceEngine(hub, x, *bad),
                     std::invalid_argument);
        EXPECT_THROW(Server(w.graph, csr, *bad), std::invalid_argument);
        EXPECT_THROW(Server(w.graph, x, *bad), std::invalid_argument);
    }
    // The well-formed chain still constructs.
    EXPECT_NO_THROW(InferenceEngine(hub, x, w.weights));
    EXPECT_NO_THROW(InferenceEngine(hub, csr, w.weights));
}

// ------------------------------------------------------ criterion (b)

/** Signature of one replay: per-request (epoch, logits) + batch map. */
struct ReplaySignature
{
    std::map<uint64_t, std::pair<uint64_t, std::vector<float>>> byId;
    std::map<uint64_t, uint32_t> batchSizeById;
    std::vector<uint64_t> updateEpochs;

    static ReplaySignature
    of(const ReplayReport &rep)
    {
        ReplaySignature s;
        for (const InferenceResult &r : rep.inference) {
            s.byId[r.id] = {r.epoch, r.logits};
            s.batchSizeById[r.id] = r.batchSize;
        }
        for (const UpdateResult &u : rep.updates)
            s.updateEpochs.push_back(u.epoch);
        return s;
    }
};

TEST(ServingReplay, DeterministicAcrossThreadCounts)
{
    Workload w = makeWorkload(800, 16, 12, 6, 2, 9);
    TraceConfig tc;
    tc.numInference = 600;
    tc.numUpdates = 60;
    tc.seed = 3;
    const std::vector<Request> trace =
        makeSyntheticTrace(w.graph, tc);

    std::vector<ReplaySignature> sigs;
    std::vector<std::string> summaries;
    for (int threads : {1, 2, 8}) {
        setGlobalThreads(threads);
        Server server(w.graph, w.asFeatures(), w.weights, ServerConfig{});
        ReplayReport rep = server.runTrace(trace);
        EXPECT_EQ(rep.inference.size(), tc.numInference);
        sigs.push_back(ReplaySignature::of(rep));
        summaries.push_back(server.stats().summary());
    }
    setGlobalThreads(0);
    for (size_t i = 1; i < sigs.size(); ++i) {
        EXPECT_EQ(sigs[0].byId, sigs[i].byId)
            << "thread count run " << i;
        EXPECT_EQ(sigs[0].batchSizeById, sigs[i].batchSizeById);
        EXPECT_EQ(sigs[0].updateEpochs, sigs[i].updateEpochs);
        // Virtual-clock stats (latencies, histogram) are part of the
        // determinism contract too.
        EXPECT_EQ(summaries[0], summaries[i]);
    }
}

TEST(ServingReplay, SparseFeaturesBitIdenticalToDenseAcrossThreads)
{
    // The acceptance criterion's serving half: a server holding
    // 0.01-density CSR features must replay a mixed trace (updates
    // included, so both the whole-graph and the gathered L-hop
    // subgraph paths run) byte-identically to a server holding the
    // densified image, at IGCN_THREADS 1, 4 and 8 and across batch
    // caps that exercise single-node and large-batch scheduling.
    Workload w = makeWorkload(800, 96, 12, 6, 2, 9);
    Rng rng(51);
    w.features.fillRandomSparse(rng, 0.01, 1.0f);
    Features sparse;
    sparse.sparse = true;
    sparse.csr = denseToCsr(w.features);
    ASSERT_LT(sparse.csr.density(), 0.05);

    TraceConfig tc;
    tc.numInference = 300;
    tc.numUpdates = 30;
    tc.seed = 8;
    const std::vector<Request> trace =
        makeSyntheticTrace(w.graph, tc);

    for (uint32_t cap : {1u, 64u}) {
        ServerConfig sc;
        sc.scheduler.maxBatch = cap;
        setGlobalThreads(1);
        Server dense(w.graph, w.asFeatures(), w.weights, sc);
        const ReplaySignature want =
            ReplaySignature::of(dense.runTrace(trace));
        for (int threads : {1, 4, 8}) {
            setGlobalThreads(threads);
            Server server(w.graph, sparse, w.weights, sc);
            ReplaySignature got =
                ReplaySignature::of(server.runTrace(trace));
            // map<.., vector<float>> equality is exact float
            // equality: the sparse path must reproduce the dense
            // bytes, not approximate them.
            EXPECT_EQ(want.byId, got.byId)
                << "cap " << cap << ", " << threads << " threads";
            EXPECT_EQ(want.batchSizeById, got.batchSizeById);
            EXPECT_EQ(want.updateEpochs, got.updateEpochs);
        }
    }
    setGlobalThreads(0);
}

TEST(ServingReplay, PerRequestResultsInvariantAcrossBatchCaps)
{
    Workload w = makeWorkload(700, 16, 12, 6, 2, 13);
    TraceConfig tc;
    tc.numInference = 400;
    tc.numUpdates = 40;
    tc.seed = 4;
    const std::vector<Request> trace =
        makeSyntheticTrace(w.graph, tc);

    std::vector<ReplaySignature> sigs;
    for (uint32_t cap : {1u, 4u, 64u}) {
        ServerConfig sc;
        sc.scheduler.maxBatch = cap;
        Server server(w.graph, w.asFeatures(), w.weights, sc);
        sigs.push_back(ReplaySignature::of(server.runTrace(trace)));
    }
    // Batching may not change any request's result: FCFS order makes
    // the set of updates applied before a request a pure function of
    // the trace, so its logits are cap-invariant bit-exactly. The
    // epoch *number* is config metadata — under continuous batching
    // the inference cap shifts the busy horizon and with it how many
    // updates coalesce per application — so only the logits are
    // compared across caps (epoch equality across thread counts at a
    // fixed cap is pinned by DeterministicAcrossThreadCounts).
    const auto logitsById = [](const ReplaySignature &s) {
        std::map<uint64_t, std::vector<float>> m;
        for (const auto &[id, er] : s.byId)
            m[id] = er.second;
        return m;
    };
    for (size_t i = 1; i < sigs.size(); ++i) {
        EXPECT_EQ(logitsById(sigs[0]), logitsById(sigs[i]))
            << "cap run " << i;
        // Every cap applies the same update stream: epochs advance by
        // 1 per application and cover the same events.
        EXPECT_FALSE(sigs[i].updateEpochs.empty());
        for (size_t e = 1; e < sigs[i].updateEpochs.size(); ++e)
            EXPECT_EQ(sigs[i].updateEpochs[e],
                      sigs[i].updateEpochs[e - 1] + 1);
    }
}

/**
 * FNV-1a over a stream of integers, fed least-significant byte first
 * so the hash is independent of struct padding and host byte order.
 */
class Fnv1a
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }

    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ull;
};

/** Fingerprint of everything a replay served, in dispatch order. */
void
addReport(Fnv1a &f, const ReplayReport &rep)
{
    f.add(rep.inference.size());
    for (const InferenceResult &r : rep.inference) {
        for (uint64_t v :
             {r.id, r.epoch, r.startUs, r.doneUs, uint64_t{r.batchSize}})
            f.add(v);
        f.add(r.logits.size());
        for (float x : r.logits)
            f.add(std::bit_cast<uint32_t>(x));
    }
    f.add(rep.updates.size());
    for (const UpdateResult &u : rep.updates)
        for (uint64_t v :
             {u.epoch, uint64_t{u.coalesced}, u.startUs, u.doneUs})
            f.add(v);
}

/**
 * One fingerprint per (gap, rate) row of the golden grid: gaps of 5
 * and 1us, update rates of 10/20/50 per 100 reads; each row covers
 * six replays (batch caps 1/4/32 x strict shares 0 and 0.5).
 */
std::array<std::array<uint64_t, 3>, 2>
goldenGridFingerprints(const ServiceModel &service)
{
    Workload w = makeWorkload(400, 16, 12, 6, 2, 9);
    const double kGaps[] = {5.0, 1.0};
    const double kRates[] = {0.1, 0.2, 0.5};
    std::array<std::array<uint64_t, 3>, 2> out{};
    for (size_t g = 0; g < 2; ++g) {
        for (size_t u = 0; u < 3; ++u) {
            Fnv1a f;
            for (uint32_t cap : {1u, 4u, 32u}) {
                for (double strict : {0.0, 0.5}) {
                    TraceConfig tc;
                    tc.numInference = 200;
                    tc.numUpdates =
                        static_cast<uint64_t>(200 * kRates[u]);
                    tc.meanGapUs = kGaps[g];
                    tc.removeFraction = 0.5;
                    tc.strictFraction = strict;
                    tc.seed = 11;
                    ServerConfig sc;
                    sc.scheduler.maxBatch = cap;
                    sc.service = service;
                    Server server(w.graph, w.asFeatures(), w.weights, sc);
                    addReport(f, server.runTrace(
                                     makeSyntheticTrace(w.graph, tc)));
                }
            }
            out[g][u] = f.value();
        }
    }
    return out;
}

void
expectGolden(const std::array<std::array<uint64_t, 3>, 2> &got,
             const uint64_t (&want)[2][3])
{
    for (size_t g = 0; g < 2; ++g)
        for (size_t u = 0; u < 3; ++u) {
            char hex[19];
            std::snprintf(hex, sizeof hex, "%#018llx",
                          static_cast<unsigned long long>(got[g][u]));
            EXPECT_EQ(got[g][u], want[g][u])
                << "grid row (" << g << ", " << u << "): got " << hex;
        }
}

TEST(ServingReplay, DefaultConfigMatchesGoldenFingerprint)
{
    // The default ServerConfig's full served stream — per-request
    // epoch, logit bytes, start/done and batch size, and every update
    // application's epoch, coalesced count and start/done — over a
    // loaded grid where updates race reads (goldenGridFingerprints).
    // An update is a hard sequence point: a read admitted after an
    // update never runs before it, and an update admitted after a
    // waiting read never applies before that read is served. The
    // virtual service cost charges the rows and A_hat entries each
    // layer aggregated, so these values move whenever the engine's
    // work accounting does; the zero-coefficient table below does
    // not. Served results are thread-count-invariant (pinned above);
    // one thread spares these tiny batches the pool's wake-ups.
    setGlobalThreads(1);
    const uint64_t kGolden[2][3] = {
        {0x83a308f7420410eeull, 0xe1a14b98733ee126ull,
         0xb84a34fd823dc5feull},
        {0xdb304436543bc75eull, 0x5d7fd4c38bad89d7ull,
         0xc7a274f6e7797556ull},
    };
    expectGolden(goldenGridFingerprints(ServiceModel{}), kGolden);
    setGlobalThreads(0);
}

TEST(ServingReplay, WorkFreeServiceModelMatchesGoldenFingerprint)
{
    // The same grid with the work-dependent service coefficients at
    // zero: virtual timing then depends only on batch sizes and
    // update effort, not on how the engine counts its aggregation
    // work. This table pins logits, epochs, batching and update order
    // across any rewrite of the inference engine's internals.
    setGlobalThreads(1);
    ServiceModel service;
    service.perSubNodeUs = 0.0;
    service.perSubEdgeUs = 0.0;
    const uint64_t kGolden[2][3] = {
        {0xee8c66d0f067568cull, 0xf16976fbc2bc435dull,
         0xdc9a4bf69f35a9eaull},
        {0x769ae6fbf37f181eull, 0xb56294dcf7e2ec80ull,
         0xb53744ad142619ebull},
    };
    expectGolden(goldenGridFingerprints(service), kGolden);
    setGlobalThreads(0);
}

// --------------------------------------- aggregation cache (tentpole)

TEST(ServingAggCache, CacheEnabledReplayBitIdenticalToDisabled)
{
    // The cache's whole contract in one pin: with the island-
    // aggregation cache on, every request's logits are byte-
    // identical to the uncached server's — across a mixed trace
    // (updates invalidate islands mid-run), at IGCN_THREADS 1, 4
    // and 8 — and the cache actually engaged (hits > 0, so the test
    // cannot pass vacuously). Epoch numbers and batch composition
    // may legitimately differ: cache hits shrink the virtual service
    // cost, shifting the busy horizon, and batch formation is a
    // function of it; the FCFS dispatch order — and therefore the
    // update set seen by each request — is not.
    Workload w = makeWorkload(900, 16, 12, 6, 2, 17);
    TraceConfig tc;
    tc.numInference = 400;
    tc.numUpdates = 40;
    tc.seed = 11;
    const std::vector<Request> trace =
        makeSyntheticTrace(w.graph, tc);

    const auto logitsById = [](const ReplayReport &rep) {
        std::map<uint64_t, std::vector<float>> m;
        for (const InferenceResult &r : rep.inference)
            m[r.id] = r.logits;
        return m;
    };

    setGlobalThreads(1);
    Server plain(w.graph, w.asFeatures(), w.weights, ServerConfig{});
    const auto want = logitsById(plain.runTrace(trace));

    ServerConfig cc;
    cc.aggCache.enabled = true;
    std::vector<ReplaySignature> cachedSigs;
    for (int threads : {1, 4, 8}) {
        setGlobalThreads(threads);
        Server cached(w.graph, w.asFeatures(), w.weights, cc);
        ReplayReport rep = cached.runTrace(trace);
        EXPECT_EQ(want, logitsById(rep))
            << "cached logits diverged at " << threads << " threads";
        EXPECT_GT(cached.stats().aggCacheHits(), 0u);
        EXPECT_GT(cached.stats().aggCacheFills(), 0u);
        // Updates ran, so invalidation ran too.
        EXPECT_GT(cached.stats().aggCacheInvalidated() +
                      cached.stats().aggCacheMisses(),
                  0u);
        cachedSigs.push_back(ReplaySignature::of(rep));
    }
    setGlobalThreads(0);
    // Among cache-enabled runs the full signature (epochs included)
    // is thread-count-exact: determinism survives the cache.
    for (size_t i = 1; i < cachedSigs.size(); ++i) {
        EXPECT_EQ(cachedSigs[0].byId, cachedSigs[i].byId);
        EXPECT_EQ(cachedSigs[0].updateEpochs,
                  cachedSigs[i].updateEpochs);
        EXPECT_EQ(cachedSigs[0].batchSizeById,
                  cachedSigs[i].batchSizeById);
    }
}

TEST(ServingAggCache, SparseFeatureServerBitIdenticalWithCache)
{
    // The sparse first-layer path fills and consults the same cache;
    // cached sparse == uncached dense, bit-exactly.
    Workload w = makeWorkload(600, 64, 12, 6, 2, 23);
    Rng rng(77);
    w.features.fillRandomSparse(rng, 0.02, 1.0f);
    Features sparse;
    sparse.sparse = true;
    sparse.csr = denseToCsr(w.features);

    TraceConfig tc;
    tc.numInference = 200;
    tc.numUpdates = 20;
    tc.seed = 5;
    const std::vector<Request> trace =
        makeSyntheticTrace(w.graph, tc);

    const auto logitsById = [](const ReplayReport &rep) {
        std::map<uint64_t, std::vector<float>> m;
        for (const InferenceResult &r : rep.inference)
            m[r.id] = r.logits;
        return m;
    };
    Server dense(w.graph, w.asFeatures(), w.weights, ServerConfig{});
    const auto want = logitsById(dense.runTrace(trace));

    ServerConfig cc;
    cc.aggCache.enabled = true;
    Server cached(w.graph, sparse, w.weights, cc);
    EXPECT_EQ(want, logitsById(cached.runTrace(trace)));
    EXPECT_GT(cached.stats().aggCacheHits(), 0u);
}

TEST(ServingAggCache, LookupInsertAndDeterministicLruEviction)
{
    AggCacheConfig cfg;
    cfg.enabled = true;
    cfg.maxBytes = 10 * sizeof(float); // room for two 5-float rows
    AggCache cache(cfg);
    cache.advance(1, false, 0, {});

    const std::vector<float> a{1, 2, 3, 4, 5};
    const std::vector<float> b{6, 7, 8, 9, 10};
    cache.insert(1, 0, a);
    cache.insert(1, 1, b);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().bytes, 10 * sizeof(float));

    float buf[5];
    // Hit returns the exact bytes and refreshes island 0's tick.
    ASSERT_TRUE(cache.lookup(1, 0, 5, buf));
    EXPECT_EQ(0, std::memcmp(buf, a.data(), sizeof(buf)));
    // Wrong length is a miss, never a partial copy.
    EXPECT_FALSE(cache.lookup(1, 0, 4, buf));
    // Wrong epoch is a miss (racing-advance shape).
    EXPECT_FALSE(cache.lookup(2, 0, 5, buf));

    // A third entry breaches the budget; island 1 has the lowest
    // tick (0 was refreshed by the hit above) and must be evicted.
    cache.insert(1, 2, {11, 12, 13, 14, 15});
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_TRUE(cache.lookup(1, 0, 5, buf));
    EXPECT_FALSE(cache.lookup(1, 1, 5, buf));
    EXPECT_TRUE(cache.lookup(1, 2, 5, buf));
    EXPECT_LE(cache.stats().bytes, cfg.maxBytes);
}

TEST(ServingAggCache, AdvanceRemapsByProvenanceAndGapClears)
{
    AggCache cache({.enabled = true, .maxBytes = 1 << 20});
    cache.advance(3, false, 0, {});
    cache.insert(3, 0, {1, 1});
    cache.insert(3, 1, {2, 2});
    cache.insert(3, 2, {3, 3});

    // Epoch 4: new island 0 inherits old 2, new island 1 is fresh
    // (dirty), new island 2 inherits old 0. Old 1 is orphaned.
    const uint32_t remap[] = {2, AggCache::kNoParent, 0};
    cache.advance(4, true, 3, remap);
    float buf[2];
    ASSERT_TRUE(cache.lookup(4, 0, 2, buf));
    EXPECT_EQ(buf[0], 3.0f);
    EXPECT_FALSE(cache.lookup(4, 1, 2, buf));
    ASSERT_TRUE(cache.lookup(4, 2, 2, buf));
    EXPECT_EQ(buf[0], 1.0f);
    EXPECT_EQ(cache.stats().invalidated, 1u); // old island 1
    EXPECT_EQ(cache.stats().entries, 2u);

    // Same-epoch advance is a no-op.
    cache.advance(4, true, 3, remap);
    EXPECT_TRUE(cache.lookup(4, 0, 2, buf));

    // Lineage gap (parent is not the cached epoch): full clear.
    cache.advance(9, true, 7, remap);
    EXPECT_FALSE(cache.lookup(9, 0, 2, buf));
    EXPECT_EQ(cache.stats().clears, 1u);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);

    // reset(): fresh lifetime, counters zeroed.
    cache.insert(9, 0, {5, 5});
    cache.reset();
    EXPECT_EQ(cache.stats().fills, 0u);
    EXPECT_FALSE(cache.lookup(9, 0, 2, buf));
}

TEST(ServingReplay, UpdatesTakeEffectAndMatchFinalReference)
{
    Workload w = makeWorkload(500, 16, 12, 6, 2, 21);
    TraceConfig tc;
    tc.numInference = 200;
    tc.numUpdates = 30;
    tc.seed = 6;
    Server server(w.graph, w.asFeatures(), w.weights, ServerConfig{});
    ReplayReport rep = server.runTrace(makeSyntheticTrace(w.graph, tc));

    EXPECT_GT(server.currentEpoch(), 0u);
    uint64_t applied = 0;
    for (const UpdateResult &u : rep.updates)
        applied += u.edgesApplied;
    EXPECT_GT(applied, 0u);

    // Post-replay queries must match the reference forward on the
    // final evolved graph, bit-exactly.
    auto hub = server.stateHub();
    auto state = hub->acquire();
    EXPECT_GT(state->graph.numEdges(), w.graph.numEdges());
    DenseMatrix ref = referenceForward(
        state->graph,
        [&] {
            Features f;
            f.dense = w.features;
            return f;
        }(),
        w.weights);
    InferenceEngine engine(hub, w.asFeatures(), w.weights);
    auto results = engine.runBatch(inferenceBatch({1, 44, 321}));
    for (const InferenceResult &r : results) {
        EXPECT_EQ(r.epoch, state->epoch);
        EXPECT_TRUE(bitEqualRow(r.logits, ref, r.node));
    }
}

TEST(ServingReplay, MixedAddRemoveEpochsStayBitIdenticalToReference)
{
    // Deletion-heavy epoch sequence: every epoch interleaves edge
    // additions with deletions (sampled from the *current* epoch so
    // they take effect). After every published epoch, batched L-hop
    // inference must stay bit-identical to the whole-graph reference
    // on that epoch's evolved graph — the serving engine's exactness
    // contract survives shrinking receptive fields, dissolved
    // islands, and demoted hubs.
    Workload w = makeWorkload(600, 16, 12, 6, 2, 37);
    auto hub = std::make_shared<GraphStateHub>(
        makeGraphState(w.graph, LocatorConfig{}));
    InferenceEngine engine(hub, w.asFeatures(), w.weights);
    UpdateApplier applier(hub);

    Rng rng(53);
    size_t total_removed = 0, total_added = 0;
    for (int epoch_no = 0; epoch_no < 12; ++epoch_no) {
        auto cur = hub->acquire();
        Request r;
        r.kind = RequestKind::Update;
        r.id = static_cast<uint64_t>(epoch_no);
        for (int e = 0; e < 2; ++e) {
            const auto u = static_cast<NodeId>(
                rng.nextBounded(w.graph.numNodes()));
            const auto v = static_cast<NodeId>(
                rng.nextBounded(w.graph.numNodes()));
            if (u != v)
                r.addedEdges.emplace_back(u, v);
        }
        // Deletion-heavy: remove twice as many as we add, sampled
        // uniformly from the current epoch's arcs.
        for (int e = 0; e < 4 && cur->graph.numEdges() > 0; ++e) {
            const EdgeId arc =
                rng.nextBounded(cur->graph.numEdges());
            r.removedEdges.emplace_back(cur->graph.arcSource(arc),
                                        cur->graph.cols()[arc]);
        }
        UpdateResult res = applier.apply({&r, 1});
        total_removed += res.edgesRemoved;
        total_added += res.edgesApplied;

        auto state = hub->acquire();
        EXPECT_EQ(state->epoch, res.epoch);
        DenseMatrix ref =
            referenceForward(state->graph, w.asFeatures(), w.weights);
        std::vector<NodeId> targets;
        for (int i = 0; i < 6; ++i)
            targets.push_back(static_cast<NodeId>(
                rng.nextBounded(w.graph.numNodes())));
        auto results = engine.runBatch(inferenceBatch(targets));
        for (const InferenceResult &ir : results) {
            EXPECT_EQ(ir.epoch, state->epoch);
            EXPECT_TRUE(bitEqualRow(ir.logits, ref, ir.node))
                << "epoch " << state->epoch << " node " << ir.node;
        }
    }
    EXPECT_GT(total_removed, 0u);
    EXPECT_GT(total_added, 0u);
}

TEST(ServingReplay, DeletionHeavyReplayDeterministicAcrossCapsAndThreads)
{
    // Replay determinism with removal events in the trace: identical
    // per-request results and update epochs across batch caps 1/4/64,
    // and bit-identical full replays (stats summary included) across
    // IGCN_THREADS 1/8.
    Workload w = makeWorkload(700, 16, 12, 6, 2, 41);
    TraceConfig tc;
    tc.numInference = 400;
    tc.numUpdates = 60;
    tc.removeFraction = 0.6;
    tc.seed = 8;
    const std::vector<Request> trace =
        makeSyntheticTrace(w.graph, tc);

    size_t removal_requests = 0;
    for (const Request &r : trace)
        if (!r.removedEdges.empty())
            removal_requests++;
    EXPECT_GT(removal_requests, 10u); // the trace is deletion-heavy

    std::vector<ReplaySignature> sigs;
    uint64_t edges_removed = 0;
    for (uint32_t cap : {1u, 4u, 64u}) {
        ServerConfig sc;
        sc.scheduler.maxBatch = cap;
        Server server(w.graph, w.asFeatures(), w.weights, sc);
        ReplayReport rep = server.runTrace(trace);
        sigs.push_back(ReplaySignature::of(rep));
        edges_removed = server.stats().edgesRemoved();
        EXPECT_GT(edges_removed, 0u);
    }
    for (size_t i = 1; i < sigs.size(); ++i) {
        EXPECT_EQ(sigs[0].byId, sigs[i].byId) << "cap run " << i;
        EXPECT_EQ(sigs[0].updateEpochs, sigs[i].updateEpochs);
    }

    std::vector<ReplaySignature> tsigs;
    std::vector<std::string> summaries;
    for (int threads : {1, 8}) {
        setGlobalThreads(threads);
        Server server(w.graph, w.asFeatures(), w.weights, ServerConfig{});
        tsigs.push_back(ReplaySignature::of(server.runTrace(trace)));
        summaries.push_back(server.stats().summary());
    }
    setGlobalThreads(0);
    EXPECT_EQ(tsigs[0].byId, tsigs[1].byId);
    EXPECT_EQ(tsigs[0].batchSizeById, tsigs[1].batchSizeById);
    EXPECT_EQ(tsigs[0].updateEpochs, tsigs[1].updateEpochs);
    EXPECT_EQ(summaries[0], summaries[1]);
}

// ------------------------------------------------------ criterion (c)

TEST(ServingConcurrency, InterleavedUpdatesNeverTearReads)
{
    Workload w = makeWorkload(600, 12, 10, 5, 2, 17);
    auto hub = std::make_shared<GraphStateHub>(
        makeGraphState(w.graph, LocatorConfig{}));
    InferenceEngine engine(hub, w.asFeatures(), w.weights);
    UpdateApplier applier(hub);

    // The writer retains every epoch's state so readers' results can
    // be checked against the exact epoch they claim to have seen.
    std::vector<std::shared_ptr<const GraphState>> epochs;
    epochs.push_back(hub->acquire());

    constexpr int kUpdates = 25;
    constexpr int kReaders = 4;
    constexpr int kQueriesPerReader = 40;

    std::thread writer([&] {
        Rng rng(71);
        for (int i = 0; i < kUpdates; ++i) {
            Request r;
            r.kind = RequestKind::Update;
            r.id = static_cast<uint64_t>(i);
            for (int e = 0; e < 3; ++e) {
                const auto u = static_cast<NodeId>(
                    rng.nextBounded(w.graph.numNodes()));
                const auto v = static_cast<NodeId>(
                    rng.nextBounded(w.graph.numNodes()));
                if (u != v)
                    r.addedEdges.emplace_back(u, v);
            }
            UpdateResult res = applier.apply({&r, 1});
            if (res.edgesApplied > 0)
                epochs.push_back(hub->acquire());
        }
    });

    struct Observation
    {
        uint64_t epoch;
        NodeId node;
        std::vector<float> logits;
    };
    std::vector<std::vector<Observation>> seen(kReaders);
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t] {
            Rng rng(100 + t);
            for (int q = 0; q < kQueriesPerReader; ++q) {
                std::vector<NodeId> targets;
                for (int i = 0; i < 4; ++i)
                    targets.push_back(static_cast<NodeId>(
                        rng.nextBounded(w.graph.numNodes())));
                auto results =
                    engine.runBatch(inferenceBatch(targets));
                for (InferenceResult &r : results)
                    seen[t].push_back({r.epoch, r.node,
                                       std::move(r.logits)});
            }
        });
    }
    writer.join();
    for (std::thread &t : readers)
        t.join();

    // Every observation must match the whole-graph reference of the
    // exact epoch it was served against — a torn read (half-applied
    // update, stale scale vector, stale adjacency) cannot do that.
    std::map<uint64_t, DenseMatrix> ref_by_epoch;
    for (const auto &state : epochs) {
        Features f;
        f.dense = w.features;
        ref_by_epoch[state->epoch] =
            referenceForward(state->graph, f, w.weights);
    }
    size_t checked = 0;
    for (const auto &observations : seen) {
        for (const Observation &o : observations) {
            auto it = ref_by_epoch.find(o.epoch);
            ASSERT_NE(it, ref_by_epoch.end())
                << "unknown epoch " << o.epoch;
            EXPECT_TRUE(bitEqualRow(o.logits, it->second, o.node))
                << "epoch " << o.epoch << " node " << o.node;
            checked++;
        }
    }
    EXPECT_EQ(checked,
              static_cast<size_t>(kReaders) * kQueriesPerReader * 4);
}

TEST(ServingConcurrency, RealTimeServerServesAndDrains)
{
    Workload w = makeWorkload(400, 12, 10, 5, 2, 29);
    Server server(w.graph, w.asFeatures(), w.weights, ServerConfig{});
    server.start();

    constexpr int kProducers = 2;
    constexpr int kPerProducer = 60;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            Rng rng(500 + p);
            for (int i = 0; i < kPerProducer; ++i) {
                if (i % 20 == 19) {
                    const auto u = static_cast<NodeId>(
                        rng.nextBounded(w.graph.numNodes()));
                    const auto v = static_cast<NodeId>(
                        rng.nextBounded(w.graph.numNodes()));
                    // SLO layer disabled: every submission admits.
                    if (u != v)
                        EXPECT_TRUE(server.submitUpdate({{u, v}}).ok());
                    else
                        EXPECT_TRUE(server.submitInference(u).ok());
                } else {
                    EXPECT_TRUE(
                        server
                            .submitInference(static_cast<NodeId>(
                                rng.nextBounded(w.graph.numNodes())))
                            .ok());
                }
            }
        });
    }
    for (std::thread &t : producers)
        t.join();
    ReplayReport rep = server.stop();

    const size_t total = kProducers * kPerProducer;
    size_t coalesced = 0;
    for (const UpdateResult &u : rep.updates)
        coalesced += u.coalesced;
    // Every submitted request is answered exactly once.
    EXPECT_EQ(rep.inference.size() + coalesced, total);
    for (const InferenceResult &r : rep.inference) {
        EXPECT_EQ(r.logits.size(), size_t{5});
        EXPECT_GE(r.doneUs, r.arrivalUs);
    }
}

// ----------------------------------------------- scheduler unit tests

Request
req(uint64_t id, uint64_t arrival_us, RequestKind kind,
    NodeId node = 0)
{
    Request r;
    r.kind = kind;
    r.id = id;
    r.arrivalUs = arrival_us;
    r.node = node;
    return r;
}

/** One scheduled batch: kind, request ids and dispatch time. */
struct ModelBatch
{
    RequestKind kind;
    std::vector<uint64_t> ids;
    uint64_t formedAtUs = 0;

    bool operator==(const ModelBatch &) const = default;
};

/**
 * Drive an SloScheduler with the default SloConfig over arrival-
 * sorted requests the way Server::runTrace does: before each decision,
 * admit every request arrived by the next dispatch time. Each batch
 * keeps the engine busy for service_us after its dispatch.
 */
std::vector<ModelBatch>
scheduleTrace(const std::vector<Request> &reqs, const SchedulerConfig &cfg,
              uint64_t service_us = 0)
{
    SloScheduler sched(cfg, SloConfig{});
    std::vector<ModelBatch> out;
    uint64_t busy = 0;
    size_t i = 0;
    while (i < reqs.size() || !sched.empty()) {
        if (i < reqs.size() &&
            (sched.empty() ||
             reqs[i].arrivalUs <= sched.nextDispatchTimeUs(busy))) {
            sched.admit(reqs[i++]);
            continue;
        }
        SloScheduler::Decision d;
        sched.next(busy, d);
        ModelBatch m{d.batch.kind, {}, d.batch.formedAtUs};
        for (const Request &r : d.batch.requests)
            m.ids.push_back(r.id);
        busy = d.batch.formedAtUs + service_us;
        out.push_back(std::move(m));
    }
    return out;
}

std::vector<std::vector<uint64_t>>
batchIds(const std::vector<Request> &reqs, const SchedulerConfig &cfg)
{
    std::vector<std::vector<uint64_t>> out;
    for (ModelBatch &b : scheduleTrace(reqs, cfg))
        out.push_back(std::move(b.ids));
    return out;
}

TEST(ServingScheduler, FcfsContinuousBatchingRules)
{
    SchedulerConfig cfg;
    cfg.maxBatch = 8;

    // A burst at t=0; two same-instant arrivals later; an update; a
    // trailing inference request.
    auto batches = batchIds({req(0, 0, RequestKind::Inference),
                             req(1, 0, RequestKind::Inference),
                             req(2, 500, RequestKind::Inference),
                             req(3, 500, RequestKind::Inference),
                             req(4, 520, RequestKind::Update),
                             req(5, 530, RequestKind::Inference)},
                            cfg);
    ASSERT_EQ(batches.size(), 4u);
    // Everything already arrived at the dispatch instant joins; a
    // later arrival (or the update's kind boundary) never does.
    EXPECT_EQ(batches[0], (std::vector<uint64_t>{0, 1}));
    EXPECT_EQ(batches[1], (std::vector<uint64_t>{2, 3}));
    EXPECT_EQ(batches[2], (std::vector<uint64_t>{4}));
    EXPECT_EQ(batches[3], (std::vector<uint64_t>{5}));
}

TEST(ServingScheduler, DispatchesAtEngineFreeInstantWithoutStragglerWait)
{
    SchedulerConfig cfg;
    cfg.maxBatch = 8;

    std::vector<uint64_t> formed;
    for (const ModelBatch &b :
         scheduleTrace({req(0, 0, RequestKind::Inference),
                        req(1, 500, RequestKind::Inference),
                        req(2, 520, RequestKind::Update),
                        req(3, 530, RequestKind::Inference)},
                       cfg))
        formed.push_back(b.formedAtUs);
    ASSERT_EQ(formed.size(), 4u);
    // Every batch leaves the moment engine and head are both ready —
    // the legacy rule would have charged request 0 the full 100us
    // straggler wait.
    EXPECT_EQ(formed[0], 0u);
    EXPECT_EQ(formed[1], 500u);
    EXPECT_EQ(formed[2], 520u);
    EXPECT_EQ(formed[3], 530u);
}

TEST(ServingScheduler, AdmitsBacklogAtBusyHorizon)
{
    // The bugfix pin: requests arriving while the engine is busy are
    // admitted into the batch formed at the busy horizon (continuous
    // batching), instead of waiting out a drain + straggler window.
    SchedulerConfig cfg;
    cfg.maxBatch = 8;

    const std::vector<ModelBatch> batches = scheduleTrace(
        {req(0, 0, RequestKind::Inference),
         req(1, 20, RequestKind::Inference),   // arrives mid-service
         req(2, 50, RequestKind::Inference),   // arrives mid-service
         req(3, 120, RequestKind::Inference)}, // arrives after free
        cfg, /*service_us=*/100);
    ASSERT_EQ(batches.size(), 3u);
    EXPECT_EQ(batches[0].ids, (std::vector<uint64_t>{0}));
    // 1 and 2 arrived during batch 0's service: both board at the
    // t=100 busy horizon; 3 (not yet arrived) does not.
    EXPECT_EQ(batches[1].ids, (std::vector<uint64_t>{1, 2}));
    EXPECT_EQ(batches[1].formedAtUs, 100u);
    EXPECT_EQ(batches[2].ids, (std::vector<uint64_t>{3}));
    EXPECT_EQ(batches[2].formedAtUs, 200u);
}

TEST(ServingScheduler, BatchCapOneYieldsSingletons)
{
    SchedulerConfig cfg;
    cfg.maxBatch = 1;
    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 5; ++i)
        reqs.push_back(req(i, i, RequestKind::Inference));
    auto batches = batchIds(reqs, cfg);
    ASSERT_EQ(batches.size(), 5u);
    for (uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(batches[i], std::vector<uint64_t>{i});
}

TEST(ServingScheduler, ConsecutiveUpdatesCoalesce)
{
    SchedulerConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxUpdateCoalesce = 2;
    auto batches = batchIds({req(0, 0, RequestKind::Update),
                             req(1, 0, RequestKind::Update),
                             req(2, 0, RequestKind::Update)},
                            cfg);
    // Cap 2: first application coalesces {0, 1}, then {2}.
    ASSERT_EQ(batches.size(), 2u);
    EXPECT_EQ(batches[0], (std::vector<uint64_t>{0, 1}));
    EXPECT_EQ(batches[1], (std::vector<uint64_t>{2}));
}

/**
 * In-test model of the legacy drain-then-admit rule: same-kind
 * requests with arrival <= start + kLegacyMaxWaitUs joined (a
 * straggler window), and a partial batch's dispatch time was the
 * closing request's arrival or the full deadline. Kept here, not in
 * the scheduler, as the differential baseline.
 */
constexpr uint64_t kLegacyMaxWaitUs = 100;

std::vector<ModelBatch>
legacyRuleBatches(std::deque<Request> q, const SchedulerConfig &cfg)
{
    std::vector<ModelBatch> out;
    uint64_t busy = 0;
    while (!q.empty()) {
        Request first = std::move(q.front());
        q.pop_front();
        const uint64_t start = std::max(busy, first.arrivalUs);
        const uint64_t deadline = start + kLegacyMaxWaitUs;
        const uint32_t cap = first.kind == RequestKind::Inference
            ? std::max<uint32_t>(1, cfg.maxBatch)
            : std::max<uint32_t>(1, cfg.maxUpdateCoalesce);
        ModelBatch b{first.kind, {first.id}, 0};
        uint64_t last_arrival = first.arrivalUs;
        while (b.ids.size() < cap && !q.empty() &&
               q.front().kind == first.kind &&
               q.front().arrivalUs <= deadline) {
            last_arrival = q.front().arrivalUs;
            b.ids.push_back(q.front().id);
            q.pop_front();
        }
        if (b.ids.size() == cap || q.empty())
            b.formedAtUs = std::max(start, last_arrival);
        else
            b.formedAtUs =
                std::max(start, std::min(deadline,
                                         q.front().arrivalUs));
        busy = b.formedAtUs; // zero service time, like scheduleTrace
        out.push_back(std::move(b));
    }
    return out;
}

TEST(ServingScheduler, DifferentialAgainstLegacyRuleOnCoincidenceTrace)
{
    // Coincidence class: every request has arrived by the time its
    // batch can start (saturated burst), so the straggler window
    // never admits anything the new rule would not, and every legacy
    // dispatch-time case degenerates to `start`. On such traces the
    // two rules must replay byte-identically — batch composition AND
    // dispatch times.
    SchedulerConfig cfg;
    cfg.maxBatch = 3;
    cfg.maxUpdateCoalesce = 2;

    std::vector<Request> burst;
    uint64_t id = 0;
    // Mixed-kind runs, all arriving at t=0: kind boundaries, cap
    // splits, and a coalesced tail all exercise in one trace.
    for (RequestKind k :
         {RequestKind::Inference, RequestKind::Inference,
          RequestKind::Inference, RequestKind::Inference,
          RequestKind::Update, RequestKind::Update,
          RequestKind::Update, RequestKind::Inference,
          RequestKind::Update, RequestKind::Inference,
          RequestKind::Inference})
        burst.push_back(req(id++, 0, k));

    const auto legacy = legacyRuleBatches(
        {burst.begin(), burst.end()}, cfg);
    const auto current = scheduleTrace(burst, cfg);
    EXPECT_EQ(legacy, current);

    // Divergence pin: one straggler inside the legacy window. The
    // old rule stalls the t=0 head until the straggler boards at
    // t=40 (and taxes a lone tail with the full window); the new
    // rule dispatches at t=0 and serves the straggler next.
    std::vector<Request> straggler;
    straggler.push_back(req(0, 0, RequestKind::Inference));
    straggler.push_back(req(1, 40, RequestKind::Inference));
    const auto legacy2 = legacyRuleBatches(
        {straggler.begin(), straggler.end()}, cfg);
    const auto current2 = scheduleTrace(straggler, cfg);
    ASSERT_EQ(legacy2.size(), 1u);
    EXPECT_EQ(legacy2[0].ids, (std::vector<uint64_t>{0, 1}));
    EXPECT_EQ(legacy2[0].formedAtUs, 40u);
    ASSERT_EQ(current2.size(), 2u);
    EXPECT_EQ(current2[0].ids, (std::vector<uint64_t>{0}));
    EXPECT_EQ(current2[0].formedAtUs, 0u);
    EXPECT_EQ(current2[1].ids, (std::vector<uint64_t>{1}));
    EXPECT_EQ(current2[1].formedAtUs, 40u);
}

// --------------------------------------------------- stats unit tests

TEST(ServingStats, HistogramPercentilesWithinOneBucketOfExact)
{
    // Compat bound for the registry-backed rewrite: count/mean/max
    // stay exact, percentiles become fixed-boundary-histogram
    // estimates within one bucket width of the exact nearest-rank
    // value (the stats.hpp file-comment contract), and the batch-size
    // map stays exact (it is a labeled counter family, not bucketed).
    ServerStats stats;
    // 100 requests with latencies 1..100 us, in two batches.
    BatchExecInfo info;
    info.targets = 50;
    info.layerRows = {10, 5};
    for (int b = 0; b < 2; ++b) {
        stats.recordInferenceBatch(info);
        for (int i = 0; i < 50; ++i) {
            InferenceResult r;
            r.arrivalUs = 0;
            r.doneUs = static_cast<uint64_t>(b * 50 + i + 1);
            stats.recordInference(r);
        }
    }
    const LatencySummary lat = stats.inferenceLatency();
    EXPECT_EQ(lat.count, 100u);
    EXPECT_EQ(lat.maxUs, 100u);
    EXPECT_DOUBLE_EQ(lat.meanUs, 50.5);

    const obs::Histogram *hist = stats.registry().findHistogram(
        "igcn_serve_inference_latency_us", {});
    ASSERT_NE(hist, nullptr);
    const struct
    {
        double q;
        double exact; // nearest-rank over 1..100
        double got;
    } cases[] = {{0.50, 50.0, lat.p50},
                 {0.95, 95.0, lat.p95},
                 {0.99, 99.0, lat.p99}};
    for (const auto &c : cases) {
        EXPECT_NEAR(c.got, c.exact, hist->quantileErrorBound(c.q))
            << "q = " << c.q;
        // Estimates never escape the observed range.
        EXPECT_GE(c.got, 1.0);
        EXPECT_LE(c.got, 100.0);
    }

    ASSERT_EQ(stats.batchSizeHistogram().size(), 1u);
    EXPECT_EQ(stats.batchSizeHistogram().at(50), 2u);
    EXPECT_DOUBLE_EQ(stats.meanBatchSize(), 50.0);
}

TEST(ServingStats, ResetMidRunKeepsCachedMetricPointersValid)
{
    // Regression pin for the reset-by-move hazard: ServerStats caches
    // raw metric pointers into its registry at construction; the old
    // `stats = ServerStats{}` reset destroyed the registry those
    // pointers targeted while the moved-into object kept using them
    // (a use-after-free ASan catches in the sanitizer job). reset()
    // must zero values in place: recording across a mid-run reset
    // stays valid, registration survives, and pointers taken before
    // the reset still resolve.
    ServerStats stats;
    const obs::Histogram *lat_before = stats.registry().findHistogram(
        "igcn_serve_inference_latency_us", {});
    ASSERT_NE(lat_before, nullptr);

    BatchExecInfo info;
    info.targets = 3;
    stats.recordInferenceBatch(info);
    for (int i = 0; i < 3; ++i) {
        InferenceResult r;
        r.arrivalUs = 0;
        r.doneUs = 10;
        stats.recordInference(r);
    }
    Rejection rej;
    rej.id = 7;
    rej.error = ServeError::Overloaded;
    stats.recordRejection(rej);
    ASSERT_EQ(stats.inferenceLatency().count, 3u);
    ASSERT_EQ(stats.overloadedRequests(), 1u);

    stats.reset(); // mid-run: recording continues afterwards

    EXPECT_EQ(stats.inferenceLatency().count, 0u);
    EXPECT_EQ(stats.overloadedRequests(), 0u);
    EXPECT_EQ(stats.inferenceBatches(), 0u);
    // Same registry, same registration, same pointers.
    EXPECT_EQ(stats.registry().findHistogram(
                  "igcn_serve_inference_latency_us", {}),
              lat_before);

    InferenceResult r;
    r.arrivalUs = 5;
    r.doneUs = 25;
    stats.recordInference(r); // writes through the cached pointers
    EXPECT_EQ(stats.inferenceLatency().count, 1u);
    EXPECT_EQ(stats.inferenceLatency().maxUs, 20u);
    EXPECT_EQ(lat_before->count(), 1u);
}

TEST(ServingTrace, DeterministicAndWellFormed)
{
    CsrGraph g = hubAndIslandGraph({.numNodes = 300, .seed = 2}).graph;
    TraceConfig tc;
    tc.numInference = 500;
    tc.numUpdates = 50;
    tc.removeFraction = 0.4;
    tc.seed = 12;
    auto a = makeSyntheticTrace(g, tc);
    auto b = makeSyntheticTrace(g, tc);
    ASSERT_EQ(a.size(), 550u);
    uint64_t inf = 0, upd = 0, removals = 0, prev_arrival = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, i);
        EXPECT_GE(a[i].arrivalUs, prev_arrival);
        prev_arrival = a[i].arrivalUs;
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].arrivalUs, b[i].arrivalUs);
        if (a[i].kind == RequestKind::Inference) {
            inf++;
            EXPECT_LT(a[i].node, g.numNodes());
            EXPECT_EQ(a[i].node, b[i].node);
        } else {
            upd++;
            EXPECT_EQ(a[i].addedEdges, b[i].addedEdges);
            EXPECT_EQ(a[i].removedEdges, b[i].removedEdges);
            for (const auto &[u, v] : a[i].addedEdges) {
                EXPECT_LT(u, g.numNodes());
                EXPECT_LT(v, g.numNodes());
            }
            if (!a[i].removedEdges.empty())
                removals++;
            // Removal events reference real arcs of the initial
            // graph, so early deletions always take effect.
            for (const auto &[u, v] : a[i].removedEdges)
                EXPECT_TRUE(g.hasEdge(u, v));
        }
    }
    EXPECT_EQ(inf, tc.numInference);
    EXPECT_EQ(upd, tc.numUpdates);
    EXPECT_GT(removals, 5u);
    EXPECT_LT(removals, upd);
}

} // namespace
} // namespace igcn
