/**
 * @file
 * google-benchmark micro-benchmarks of the library's hot kernels:
 * SpMM dataflows, islandization, window op counting, the Island
 * Consumer's plan compile and replay, and the island-based
 * aggregation itself (compile plus one replay) — plus the
 * serving engine's frontier BFS, one whole micro-batch, one
 * update epoch and its incremental islandization alone.
 *
 * The rewritten gather kernels (push outer-product, transpose) sweep
 * the thread count as a second benchmark argument — the per-kernel
 * speedup is the time ratio between the 1-thread and N-thread rows —
 * and report the process memory high-water mark before and after the
 * run as counters (rss_before_kb / rss_after_kb). Peak RSS is
 * process-monotonic, so in a full run every benchmark after the
 * first big one reports the same global high-water mark; to
 * attribute the mark to one kernel (e.g. to see the speculation
 * buffers' removal), run it alone via
 * --benchmark_filter=OuterProduct or =Transpose.
 */

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/consumer.hpp"
#include "core/incremental.hpp"
#include "core/locator.hpp"
#include "core/redundancy.hpp"
#include "gcn/reference.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "obs/runtime.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/engine.hpp"
#include "serve/trace.hpp"
#include "serve/update.hpp"
#include "spmm/spmm.hpp"

namespace igcn {
namespace {

/** Attach before/after peak-RSS counters to a benchmark's report. */
class RssScope
{
  public:
    explicit RssScope(benchmark::State &state)
        : st(state), before(bench::peakRssKb())
    {}

    ~RssScope()
    {
        st.counters["rss_before_kb"] = static_cast<double>(before);
        st.counters["rss_after_kb"] =
            static_cast<double>(bench::peakRssKb());
    }

  private:
    benchmark::State &st;
    uint64_t before;
};

const CsrGraph &
benchGraph()
{
    static const CsrGraph g = hubAndIslandGraph(
        {.numNodes = 20000, .seed = 42}).graph;
    return g;
}

const IslandizationResult &
benchIslands()
{
    static const IslandizationResult isl = islandize(benchGraph());
    return isl;
}

void
BM_SpmmPullRowWise(benchmark::State &state)
{
    CsrMatrix a = CsrMatrix::fromGraph(benchGraph());
    Rng rng(1);
    DenseMatrix b(benchGraph().numNodes(),
                  static_cast<size_t>(state.range(0)));
    b.fillRandom(rng);
    for (auto _ : state) {
        DenseMatrix c = spmmPullRowWise(a, b, nullptr);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz() *
                            state.range(0));
}
BENCHMARK(BM_SpmmPullRowWise)->Arg(3)->Arg(16)->Arg(64);

void
BM_SpmmPushOuterProduct(benchmark::State &state)
{
    RssScope rss(state);
    setGlobalThreads(static_cast<int>(state.range(1)));
    CsrMatrix a = CsrMatrix::fromGraph(benchGraph());
    Rng rng(1);
    DenseMatrix b(benchGraph().numNodes(),
                  static_cast<size_t>(state.range(0)));
    b.fillRandom(rng);
    for (auto _ : state) {
        DenseMatrix c = spmmPushOuterProduct(a, b, nullptr);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz() *
                            state.range(0));
    setGlobalThreads(0);
}
BENCHMARK(BM_SpmmPushOuterProduct)
    ->ArgsProduct({{16}, {1, 2, 4}});

void
BM_SparseTransposeTimesDenseOnGraph(benchmark::State &state)
{
    // X^T * B with the bench graph's adjacency as X: a square,
    // power-law CSR, against the feature-shaped case below.
    RssScope rss(state);
    setGlobalThreads(static_cast<int>(state.range(1)));
    CsrMatrix a = CsrMatrix::fromGraph(benchGraph());
    Rng rng(1);
    DenseMatrix b(benchGraph().numNodes(),
                  static_cast<size_t>(state.range(0)));
    b.fillRandom(rng);
    (void)a.csc(); // steady state: the adjunct is built once
    for (auto _ : state) {
        DenseMatrix c = sparseTransposeTimesDense(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz() *
                            state.range(0));
    setGlobalThreads(0);
}
BENCHMARK(BM_SparseTransposeTimesDenseOnGraph)
    ->ArgsProduct({{16}, {1, 2, 4}});

void
BM_CscAdjunctBuild(benchmark::State &state)
{
    // Cost of the one-time CSC construction the cache amortizes away
    // (the old outer-product kernel paid this on every call).
    CsrMatrix a = CsrMatrix::fromGraph(benchGraph());
    for (auto _ : state) {
        a.invalidateCsc();
        benchmark::DoNotOptimize(&a.csc());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_CscAdjunctBuild);

/** Pubmed surrogate's feature shape: 19717 nodes x 500 channels. */
constexpr NodeId kPubmedRows = 19717;
constexpr int kPubmedCols = 500;

/**
 * First-layer features: range(0) = density in permille, range(1) =
 * CSR storage (0 = dense), range(3) = shape (0 = 4096 x 4096, 1 =
 * Pubmed). A dense X gets its CSR adjunct built here, so the timed
 * loop sees the steady state every later call sees.
 */
Features
firstLayerFeatures(const benchmark::State &state, Rng &rng)
{
    const bool pubmed = state.range(3) != 0;
    Features x = makeFeatures(pubmed ? kPubmedRows : 4096,
                              pubmed ? kPubmedCols : 4096,
                              static_cast<double>(state.range(0)) / 1000.0,
                              rng, /*force_sparse=*/state.range(1) != 0);
    (void)x.rowsCsr();
    return x;
}

void
BM_FirstLayerCombination(benchmark::State &state)
{
    // Layer-0 X*W through featuresTimesDense, the route every caller
    // takes: a dense X at most a quarter full runs the sparse kernel
    // on its CSR adjunct, a denser one runs gemm. The sparse=1 rows
    // store X as CSR outright. range(2) = threads; see
    // firstLayerFeatures for the rest.
    RssScope rss(state);
    setGlobalThreads(static_cast<int>(state.range(2)));
    Rng rng(3);
    const Features x = firstLayerFeatures(state, rng);
    DenseMatrix w(x.cols(), 16);
    w.fillRandom(rng);
    for (auto _ : state) {
        DenseMatrix c = featuresTimesDense(x, w);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.counters["csr_route"] = x.rowsCsr() != nullptr;
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(x.nnz()) * 16);
    setGlobalThreads(0);
}
BENCHMARK(BM_FirstLayerCombination)
    ->ArgsProduct({{10, 100}, {0, 1}, {1, 4}, {0}})
    ->ArgsProduct({{100, 300, 1000}, {0, 1}, {1, 4}, {1}});

void
BM_FirstLayerTransposeCombination(benchmark::State &state)
{
    // The backward twin: dW0 = X^T * dU through
    // featuresTransposeTimesDense at the Pubmed shape, 16 hidden
    // channels. Same arguments as BM_FirstLayerCombination.
    RssScope rss(state);
    setGlobalThreads(static_cast<int>(state.range(2)));
    Rng rng(3);
    const Features x = firstLayerFeatures(state, rng);
    if (const CsrMatrix *rows = x.rowsCsr())
        (void)rows->csc();
    DenseMatrix du(x.rows(), 16);
    du.fillRandom(rng);
    for (auto _ : state) {
        DenseMatrix c = featuresTransposeTimesDense(x, du);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.counters["csr_route"] = x.rowsCsr() != nullptr;
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(x.nnz()) * 16);
    setGlobalThreads(0);
}
BENCHMARK(BM_FirstLayerTransposeCombination)
    ->ArgsProduct({{100, 300, 1000}, {0, 1}, {1, 4}, {1}});

void
BM_FeatureAdjunctBuild(benchmark::State &state)
{
    // Cost of the one-time dense -> CSR compaction behind
    // Features::rowsCsr() at the Pubmed shape: the count pass and,
    // under the nnz <= cells / 4 gate, the fill pass (at 300 permille
    // only the count runs). range(0) = density in permille, range(1)
    // = threads.
    RssScope rss(state);
    setGlobalThreads(static_cast<int>(state.range(1)));
    Rng rng(3);
    const Features x =
        makeFeatures(kPubmedRows, kPubmedCols,
                     static_cast<double>(state.range(0)) / 1000.0, rng);
    for (auto _ : state) {
        x.invalidateRowsCsr();
        benchmark::DoNotOptimize(x.rowsCsr());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(x.dense.data().size()));
    setGlobalThreads(0);
}
BENCHMARK(BM_FeatureAdjunctBuild)->ArgsProduct({{100, 300}, {1, 4}});

void
BM_FirstLayerFirstCall(benchmark::State &state)
{
    // The first featuresTimesDense on a fresh dense Pubmed X (adjunct
    // build plus sparse kernel), range(0) = 1, against a plain
    // gemm(X, W), range(0) = 0: the one-time price of the route.
    // range(1) = threads.
    RssScope rss(state);
    setGlobalThreads(static_cast<int>(state.range(1)));
    Rng rng(3);
    const Features x = makeFeatures(kPubmedRows, kPubmedCols, 0.1, rng);
    DenseMatrix w(kPubmedCols, 16);
    w.fillRandom(rng);
    const bool first_call = state.range(0) != 0;
    for (auto _ : state) {
        x.invalidateRowsCsr();
        DenseMatrix c = first_call ? featuresTimesDense(x, w)
                                   : gemm(x.dense, w);
        benchmark::DoNotOptimize(c.data().data());
    }
    setGlobalThreads(0);
}
BENCHMARK(BM_FirstLayerFirstCall)->ArgsProduct({{0, 1}, {1, 4}});

void
BM_DenseTransposeCombination(benchmark::State &state)
{
    // Backward-pass dW0 = X^T * dU with dense features at the Pubmed
    // surrogate's shape (19717 x 500 at 10% density, 16 hidden
    // channels), the gemm_at_b kernel the training epoch runs.
    // range(0) = threads.
    RssScope rss(state);
    setGlobalThreads(static_cast<int>(state.range(0)));
    Rng rng(3);
    DenseMatrix x(19717, 500);
    const size_t nnz = x.fillRandomSparse(rng, 0.1);
    DenseMatrix du(19717, 16);
    du.fillRandom(rng);
    for (auto _ : state) {
        DenseMatrix c = gemmTransposeA(x, du);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(nnz) * 16);
    setGlobalThreads(0);
}
BENCHMARK(BM_DenseTransposeCombination)->Arg(1)->Arg(4);

void
BM_SparseTransposeTimesDense(benchmark::State &state)
{
    // Backward-pass X^T * dU for CSR features, steady-state (the CSC
    // adjunct is built once and reused across epochs).
    RssScope rss(state);
    setGlobalThreads(static_cast<int>(state.range(1)));
    const double density =
        static_cast<double>(state.range(0)) / 1000.0;
    Rng rng(3);
    Features x = makeFeatures(20000, 4096, density, rng,
                              /*force_sparse=*/true);
    DenseMatrix b(20000, 16);
    b.fillRandom(rng);
    (void)x.csr.csc();
    for (auto _ : state) {
        DenseMatrix c = sparseTransposeTimesDense(x.csr, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(x.nnz()) * 16);
    setGlobalThreads(0);
}
BENCHMARK(BM_SparseTransposeTimesDense)
    ->ArgsProduct({{10}, {1, 4}});

void
BM_Islandize(benchmark::State &state)
{
    const CsrGraph &g = benchGraph();
    for (auto _ : state) {
        IslandizationResult isl = islandize(g);
        benchmark::DoNotOptimize(isl.islandOf.data());
    }
    state.SetItemsProcessed(state.iterations() * g.numEdges());
}
BENCHMARK(BM_Islandize);

void
BM_CountPruning(benchmark::State &state)
{
    const CsrGraph &g = benchGraph();
    const IslandizationResult &isl = benchIslands();
    RedundancyConfig cfg;
    for (auto _ : state) {
        PruningReport r = countPruning(g, isl, cfg);
        benchmark::DoNotOptimize(r.interHubOps);
    }
    state.SetItemsProcessed(state.iterations() * g.numEdges());
}
BENCHMARK(BM_CountPruning);

void
BM_AggregateViaIslands(benchmark::State &state)
{
    const CsrGraph &g = benchGraph();
    const IslandizationResult &isl = benchIslands();
    Rng rng(2);
    DenseMatrix y(g.numNodes(), 16);
    y.fillRandom(rng);
    RedundancyConfig cfg;
    for (auto _ : state) {
        DenseMatrix z = aggregateViaIslands(g, isl, y, cfg);
        benchmark::DoNotOptimize(z.data().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            (g.numEdges() + g.numNodes()) * 16);
}
BENCHMARK(BM_AggregateViaIslands);

void
BM_IslandPlanCompile(benchmark::State &state)
{
    const CsrGraph &g = benchGraph();
    const IslandizationResult &isl = benchIslands();
    RedundancyConfig cfg;
    for (auto _ : state) {
        IslandPlan plan = compileIslandPlan(g, isl, cfg);
        benchmark::DoNotOptimize(plan.ops.data());
    }
    state.SetItemsProcessed(state.iterations() * isl.islands.size());
}
BENCHMARK(BM_IslandPlanCompile);

void
BM_IslandPlanReplay(benchmark::State &state)
{
    const CsrGraph &g = benchGraph();
    const IslandPlan plan = compileIslandPlan(g, benchIslands(), {});
    const size_t channels = static_cast<size_t>(state.range(0));
    Rng rng(2);
    DenseMatrix y(g.numNodes(), channels);
    y.fillRandom(rng);
    for (auto _ : state) {
        DenseMatrix z = replayIslandPlan(plan, y);
        benchmark::DoNotOptimize(z.data().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            (g.numEdges() + g.numNodes()) * channels);
}
BENCHMARK(BM_IslandPlanReplay)->Arg(3)->Arg(16)->Arg(64);

/** Pubmed surrogate served as the end-to-end benchmark serves it. */
struct ServeBench
{
    DatasetGraph data = buildDataset(Dataset::Pubmed);
    Features x;
    std::vector<DenseMatrix> weights;
    /** 16 targets of a default (hot-set) trace, in arrival order. */
    std::vector<serve::Request> batch;
    /** 16 targets drawn Zipf(1.1) by degree rank (hub frontiers). */
    std::vector<serve::Request> zipfBatch;

    ServeBench()
    {
        Rng rng(5);
        x = makeFeatures(data.graph.numNodes(), data.info.numFeatures,
                         data.info.featureDensity, rng);
        weights = makeWeights(
            modelConfig(Model::GCN, NetConfig::Algo, data.info), rng);
        batch = targets(0.0);
        zipfBatch = targets(1.1);
    }

    std::vector<serve::Request>
    targets(double zipf_alpha) const
    {
        serve::TraceConfig tc;
        tc.numInference = 16;
        tc.numUpdates = 0;
        tc.zipfAlpha = zipf_alpha;
        std::vector<serve::Request> out;
        for (const serve::Request &r :
             serve::makeSyntheticTrace(data.graph, tc))
            if (r.kind == serve::RequestKind::Inference)
                out.push_back(r);
        return out;
    }
};

const ServeBench &
serveBench()
{
    static const ServeBench b;
    return b;
}

void
BM_LHopFrontiers(benchmark::State &state)
{
    // The engine's frontier BFS for one 2-layer batch: frontiers 0
    // and 1 (layer 2's and layer 1's rows).
    const ServeBench &b = serveBench();
    std::vector<NodeId> targets;
    for (const serve::Request &r : b.batch)
        targets.push_back(r.node);
    size_t rows = 0;
    for (auto _ : state) {
        const auto frontiers = lHopFrontiers(b.data.graph, targets, 1);
        rows = frontiers.back().size();
        benchmark::DoNotOptimize(frontiers.data());
    }
    state.counters["frontier1_nodes"] = static_cast<double>(rows);
}
BENCHMARK(BM_LHopFrontiers)->Unit(benchmark::kMicrosecond);

void
BM_ServeBatch(benchmark::State &state)
{
    // One InferenceEngine::runBatch over 16 targets: the frontier BFS
    // and the 2-layer chain, each layer on its own frontier. Arg 0:
    // the hot-set batch above; arg 1: the Zipf(1.1) batch, whose hub
    // targets pull ~6.7k first-layer rows. Counters: rows and A_hat
    // entries per layer.
    const ServeBench &b = serveBench();
    const std::vector<serve::Request> &batch =
        state.range(0) == 0 ? b.batch : b.zipfBatch;
    auto hub = std::make_shared<serve::GraphStateHub>(
        serve::makeGraphState(b.data.graph, LocatorConfig{}));
    serve::InferenceEngine engine(hub, b.x, b.weights);
    serve::BatchExecInfo info;
    for (auto _ : state) {
        auto results = engine.runBatch(batch, &info);
        benchmark::DoNotOptimize(results.data());
    }
    for (size_t l = 0; l < info.layerRows.size(); ++l) {
        const std::string layer = "layer" + std::to_string(l + 1);
        state.counters[layer + "_rows"] =
            static_cast<double>(info.layerRows[l]);
        state.counters[layer + "_nnz"] =
            static_cast<double>(info.layerEntries[l]);
    }
}
BENCHMARK(BM_ServeBatch)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/** `count` node pairs absent from g, drawn with a fixed seed. */
std::vector<Edge>
absentEdges(const CsrGraph &g, size_t count)
{
    Rng rng(11);
    const NodeId n = g.numNodes();
    std::vector<Edge> absent;
    while (absent.size() < count) {
        const auto u = static_cast<NodeId>(rng.nextBounded(n));
        const auto v = static_cast<NodeId>(rng.nextBounded(n));
        if (u != v && !g.hasEdge(u, v))
            absent.emplace_back(u, v);
    }
    return absent;
}

void
BM_UpdateApply(benchmark::State &state)
{
    // One UpdateApplier::apply per iteration on the Pubmed surrogate:
    // a one-edge epoch that adds an absent edge, then (next
    // iteration) removes it again, so every apply publishes and the
    // graph never drifts. Covers the whole epoch build: graph edit,
    // incremental islandization and scaling (an epoch holds no
    // A_hat; batches form its entries from the graph and scaling).
    const ServeBench &b = serveBench();
    auto hub = std::make_shared<serve::GraphStateHub>(
        serve::makeGraphState(b.data.graph, LocatorConfig{}));
    serve::UpdateApplier applier(hub);
    const std::vector<Edge> absent = absentEdges(b.data.graph, 64);
    serve::Request req;
    req.kind = serve::RequestKind::Update;
    size_t i = 0;
    for (auto _ : state) {
        const Edge e = absent[(i / 2) % absent.size()];
        req.addedEdges.clear();
        req.removedEdges.clear();
        (i % 2 == 0 ? req.addedEdges : req.removedEdges).push_back(e);
        const serve::UpdateResult res = applier.apply({&req, 1});
        benchmark::DoNotOptimize(res.epoch);
        ++i;
    }
    state.counters["epochs"] = static_cast<double>(hub->currentEpoch());
}
BENCHMARK(BM_UpdateApply)->Unit(benchmark::kMicrosecond);

void
BM_UpdateIslandization(benchmark::State &state)
{
    // updateIslandization alone, over BM_UpdateApply's alternating
    // one-edge add and remove epochs on the Pubmed surrogate; the
    // edited graphs are built before timing starts. Each iteration
    // also frees the previous epoch's result, as retiring an epoch
    // does. Counters: per-epoch averages of the repair's work.
    const CsrGraph &g = serveBench().data.graph;
    const std::vector<Edge> edges = absentEdges(g, 16);
    std::vector<CsrGraph> with_edge;
    for (const Edge &e : edges)
        with_edge.push_back(g.withEditedEdges({&e, 1}, {}));
    const LocatorConfig cfg;
    IslandizationResult isl = islandize(g, cfg);
    double reclassified = 0, scanned = 0;
    size_t i = 0;
    for (auto _ : state) {
        const size_t k = (i / 2) % edges.size();
        const std::span<const Edge> e(&edges[k], 1);
        IncrementalStats st;
        if (i % 2 == 0)
            isl = updateIslandization(with_edge[k], isl, e, {}, cfg, &st);
        else
            isl = updateIslandization(g, isl, {}, e, cfg, &st);
        benchmark::DoNotOptimize(isl.islandOf.data());
        reclassified += static_cast<double>(st.nodesReclassified);
        scanned += static_cast<double>(st.edgesScanned);
        ++i;
    }
    state.counters["islands"] = static_cast<double>(isl.islands.size());
    state.counters["nodes_reclassified"] =
        benchmark::Counter(reclassified, benchmark::Counter::kAvgIterations);
    state.counters["edges_scanned"] =
        benchmark::Counter(scanned, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_UpdateIslandization)->Unit(benchmark::kMicrosecond);

} // namespace
} // namespace igcn

/**
 * Custom main instead of BENCHMARK_MAIN(): the whole run executes
 * under the pool's observer hook, and the per-kernel wall/busy
 * totals (SpMM dataflows, gathers, islandization — every labeled
 * parallelFor region) print as one table after the benchmark report.
 */
int
main(int argc, char **argv)
{
    igcn::obs::enableRuntimeProfiling();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    igcn::obs::disableRuntimeProfiling();

    const std::string table =
        igcn::obs::kernelTimingReport(igcn::obs::runtimeRegistry());
    if (!table.empty())
        std::printf("\nper-kernel timing (pool observer totals)\n%s",
                    table.c_str());
    return 0;
}
