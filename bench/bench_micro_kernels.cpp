/**
 * @file
 * google-benchmark micro-benchmarks of the library's hot kernels:
 * SpMM dataflows, islandization, window op counting, the Island
 * Consumer's plan compile and replay, and the island-based
 * aggregation itself (compile plus one replay) — plus the
 * serving engine's frontier BFS, one whole micro-batch and one
 * update epoch.
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
BENCHMARK(BM_SpmmPullRowWise)->Arg(16)->Arg(64);

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

void
BM_FirstLayerCombination(benchmark::State &state)
{
    // Layer-0 X*W at one shape in both storage forms — the time
    // ratio between the sparse=1 and sparse=0 rows at one density is
    // the first-layer speedup the CSR path buys. range(0) = density
    // in permille, range(1) = sparse form, range(2) = threads.
    RssScope rss(state);
    setGlobalThreads(static_cast<int>(state.range(2)));
    const double density =
        static_cast<double>(state.range(0)) / 1000.0;
    const bool sparse = state.range(1) != 0;
    Rng rng(3);
    Features x = makeFeatures(4096, 4096, density, rng, sparse);
    DenseMatrix w(4096, 16);
    w.fillRandom(rng);
    for (auto _ : state) {
        DenseMatrix c = sparse ? sparseTimesDense(x.csr, w, nullptr)
                               : gemm(x.dense, w);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(x.nnz()) * 16);
    setGlobalThreads(0);
}
BENCHMARK(BM_FirstLayerCombination)
    ->ArgsProduct({{10, 100}, {0, 1}, {1, 4}});

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
        benchmark::DoNotOptimize(isl.islands.data());
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
BENCHMARK(BM_IslandPlanReplay)->Arg(16)->Arg(64);

/** Pubmed surrogate served as the end-to-end benchmark serves it. */
struct ServeBench
{
    DatasetGraph data = buildDataset(Dataset::Pubmed);
    Features x;
    std::vector<DenseMatrix> weights;
    /** 16 targets of a default (hot-set) trace, in arrival order. */
    std::vector<serve::Request> batch;

    ServeBench()
    {
        Rng rng(5);
        x = makeFeatures(data.graph.numNodes(), data.info.numFeatures,
                         data.info.featureDensity, rng);
        weights = makeWeights(
            modelConfig(Model::GCN, NetConfig::Algo, data.info), rng);
        serve::TraceConfig tc;
        tc.numInference = 16;
        tc.numUpdates = 0;
        for (const serve::Request &r :
             serve::makeSyntheticTrace(data.graph, tc))
            if (r.kind == serve::RequestKind::Inference)
                batch.push_back(r);
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
    // One InferenceEngine::runBatch over the same 16 targets: the
    // frontier BFS and the 2-layer chain, each layer on its own
    // frontier. Counters: rows and A_hat entries per layer.
    const ServeBench &b = serveBench();
    auto hub = std::make_shared<serve::GraphStateHub>(
        serve::makeGraphState(b.data.graph, LocatorConfig{}));
    serve::InferenceEngine engine(hub, b.x, b.weights);
    serve::BatchExecInfo info;
    for (auto _ : state) {
        auto results = engine.runBatch(b.batch, &info);
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
BENCHMARK(BM_ServeBatch)->Unit(benchmark::kMicrosecond);

void
BM_UpdateApply(benchmark::State &state)
{
    // One UpdateApplier::apply per iteration on the Pubmed surrogate:
    // a one-edge epoch that adds an absent edge, then (next
    // iteration) removes it again, so every apply publishes and the
    // graph never drifts. Covers the whole epoch build: graph edit,
    // incremental islandization, scaling and A_hat.
    const ServeBench &b = serveBench();
    auto hub = std::make_shared<serve::GraphStateHub>(
        serve::makeGraphState(b.data.graph, LocatorConfig{}));
    serve::UpdateApplier applier(hub);
    Rng rng(11);
    const NodeId n = b.data.graph.numNodes();
    std::vector<Edge> absent;
    while (absent.size() < 64) {
        const auto u = static_cast<NodeId>(rng.nextBounded(n));
        const auto v = static_cast<NodeId>(rng.nextBounded(n));
        if (u != v && !b.data.graph.hasEdge(u, v))
            absent.emplace_back(u, v);
    }
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
