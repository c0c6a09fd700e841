/**
 * @file
 * Parallel-scaling sweep of the island-aware execution engine.
 *
 * Runs every pooled kernel — island aggregation (and, separately, its
 * plan compile and replay), the four SpMM dataflows, the transpose
 * scatter and dense GEMM — plus the sequential island locator and the end-to-end two-layer forward pass
 * on the synthetic hub-and-island dataset family, sweeping the
 * thread-pool worker count 1..N. Prints a speedup table and writes
 * machine-readable results to BENCH_parallel.json.
 *
 * Usage: bench_parallel_scaling [--max-threads=N] [--quick]
 *   --max-threads=N  cap the sweep (default: max(4, hardware))
 *   --quick          smallest dataset only, one reptition per point
 *                    (the CI smoke configuration)
 */

#include "bench_common.hpp"

#include <chrono>
#include <cstring>
#include <vector>

#include "core/consumer.hpp"
#include "gcn/reference.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "spmm/spmm.hpp"

using namespace igcn;
using namespace igcn::bench;

namespace {

constexpr int kChannels = 64;

struct ScalingCase
{
    std::string name;
    CsrGraph graph;
    IslandizationResult islands;
};

ScalingCase
makeCase(const char *name, NodeId nodes, uint64_t seed)
{
    HubIslandParams p;
    p.numNodes = nodes;
    p.seed = seed;
    ScalingCase c;
    c.name = name;
    c.graph = hubAndIslandGraph(p).graph;
    c.islands = islandize(c.graph);
    return c;
}

/** Best-of-reps wall time of fn(), in seconds. */
template <typename Fn>
double
timeBest(int reps, Fn &&fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        const double s =
            std::chrono::duration<double>(t1 - t0).count();
        best = std::min(best, s);
    }
    return best;
}

struct KernelResult
{
    std::string kernel;
    std::vector<int> threads;
    std::vector<double> seconds;
};

} // namespace

int
main(int argc, char **argv)
{
    int max_threads = 0;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--max-threads=", 14) == 0)
            max_threads = std::atoi(argv[i] + 14);
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }
    const int hw = static_cast<int>(
        std::thread::hardware_concurrency());
    if (max_threads < 1)
        max_threads = std::max(4, hw);
    const int reps = quick ? 1 : 3;

    banner("Parallel scaling",
           "Thread-pool sweep of the island-aware execution engine");
    std::printf("hardware_concurrency=%d, sweep 1..%d threads, "
                "best of %d rep(s)\n\n", hw, max_threads, reps);

    std::vector<int> thread_counts;
    for (int t = 1; t <= max_threads; t *= 2)
        thread_counts.push_back(t);
    if (thread_counts.back() != max_threads)
        thread_counts.push_back(max_threads);

    std::vector<ScalingCase> cases;
    cases.push_back(makeCase("hub-island-small", 4000, 11));
    if (!quick) {
        cases.push_back(makeCase("hub-island-medium", 20000, 12));
        cases.push_back(makeCase("hub-island-large", 60000, 13));
    }

    JsonWriter json;
    json.beginObject();
    json.key("bench").value("parallel_scaling");
    json.key("hardware_concurrency").value(hw);
    json.key("channels").value(kChannels);
    json.key("reps").value(reps);
    json.key("quick").value(quick);
    json.key("datasets").beginArray();

    for (const ScalingCase &c : cases) {
        const NodeId n = c.graph.numNodes();
        Rng rng(101);
        DenseMatrix y(n, kChannels);
        y.fillRandom(rng);
        CsrMatrix a = CsrMatrix::fromGraph(c.graph);
        DenseMatrix w1(kChannels, kChannels), w2(kChannels, 16);
        w1.fillRandom(rng, 0.5f);
        w2.fillRandom(rng, 0.5f);
        Features x;
        x.dense = y;
        const std::vector<DenseMatrix> weights{w1, w2};
        const RedundancyConfig cfg;

        std::printf("--- %s: %u nodes, %llu edges, %zu islands, "
                    "%u hubs ---\n", c.name.c_str(), n,
                    static_cast<unsigned long long>(c.graph.numEdges()),
                    c.islands.islands.size(), c.islands.numHubs());

        // Memory high-water mark around the sweep: the gather
        // kernels write output rows directly, so — unlike the old
        // per-worker speculation buffers (up to 8 x N x C floats) —
        // the sweep's peak should track a single output matrix plus
        // the cached CSC adjunct.
        const uint64_t rss_before_kb = peakRssKb();

        std::vector<KernelResult> results;
        results.push_back({"aggregateViaIslands", {}, {}});
        results.push_back({"islandPlanCompile", {}, {}});
        results.push_back({"islandPlanReplay", {}, {}});
        results.push_back({"spmmPullRowWise", {}, {}});
        results.push_back({"spmmPullInnerProduct", {}, {}});
        results.push_back({"spmmPushColumnWise", {}, {}});
        results.push_back({"spmmPushOuterProduct", {}, {}});
        results.push_back({"sparseTransposeTimesDense", {}, {}});
        results.push_back({"islandize", {}, {}});
        results.push_back({"gemm", {}, {}});
        results.push_back({"gcnForwardViaIslands", {}, {}});

        for (int t : thread_counts) {
            setGlobalThreads(t);
            const double agg = timeBest(reps, [&] {
                aggregateViaIslands(c.graph, c.islands, y, cfg);
            });
            IslandPlan plan;
            const double compile = timeBest(reps, [&] {
                plan = compileIslandPlan(c.graph, c.islands, cfg);
            });
            const double replay = timeBest(reps, [&] {
                replayIslandPlan(plan, y);
            });
            const double spmm = timeBest(reps, [&] {
                spmmPullRowWise(a, y, nullptr);
            });
            const double spmm_ip = timeBest(reps, [&] {
                spmmPullInnerProduct(a, y, nullptr);
            });
            const double spmm_cw = timeBest(reps, [&] {
                spmmPushColumnWise(a, y, nullptr);
            });
            const double spmm_op = timeBest(reps, [&] {
                spmmPushOuterProduct(a, y, nullptr);
            });
            const double xt = timeBest(reps, [&] {
                sparseTransposeTimesDense(a, y);
            });
            const double loc = timeBest(reps, [&] {
                islandize(c.graph);
            });
            const double mm = timeBest(reps, [&] {
                gemm(y, w1);
            });
            const double fwd = timeBest(reps, [&] {
                gcnForwardViaIslands(c.graph, c.islands, x, weights,
                                     cfg);
            });
            const double secs[] = {agg, compile, replay, spmm, spmm_ip,
                                   spmm_cw, spmm_op, xt, loc, mm, fwd};
            for (size_t k = 0; k < results.size(); ++k) {
                results[k].threads.push_back(t);
                results[k].seconds.push_back(secs[k]);
            }
        }
        setGlobalThreads(0);
        const uint64_t rss_after_kb = peakRssKb();

        json.beginObject();
        json.key("name").value(c.name);
        json.key("nodes").value(static_cast<uint64_t>(n));
        json.key("edges").value(
            static_cast<uint64_t>(c.graph.numEdges()));
        json.key("islands").value(
            static_cast<uint64_t>(c.islands.islands.size()));
        json.key("hubs").value(
            static_cast<uint64_t>(c.islands.numHubs()));
        json.key("peak_rss_kb_before").value(rss_before_kb);
        json.key("peak_rss_kb_after").value(rss_after_kb);
        json.key("kernels").beginArray();

        std::printf("%-22s", "kernel");
        for (int t : thread_counts)
            std::printf("  %7dT", t);
        std::printf("  speedup@max\n");
        for (const KernelResult &kr : results) {
            json.beginObject();
            json.key("kernel").value(kr.kernel);
            json.key("results").beginArray();
            std::printf("%-22s", kr.kernel.c_str());
            const double base = kr.seconds.front();
            for (size_t i = 0; i < kr.threads.size(); ++i) {
                std::printf("  %7.2fms", kr.seconds[i] * 1e3);
                json.beginObject();
                json.key("threads").value(kr.threads[i]);
                json.key("seconds").value(kr.seconds[i]);
                json.key("speedup").value(
                    kr.seconds[i] > 0.0 ? base / kr.seconds[i] : 0.0);
                json.endObject();
            }
            std::printf("  %8.2fx\n",
                        kr.seconds.back() > 0.0
                            ? base / kr.seconds.back() : 0.0);
            json.endArray();
            json.endObject();
        }
        json.endArray();
        json.endObject();
        std::printf("peak RSS: %.1f MB before sweep, %.1f MB after "
                    "(delta %.1f MB)\n\n",
                    rss_before_kb / 1024.0, rss_after_kb / 1024.0,
                    (rss_after_kb - rss_before_kb) / 1024.0);
    }

    json.endArray();
    json.endObject();

    const char *out_path = "BENCH_parallel.json";
    if (json.writeFile(out_path))
        std::printf("Wrote %s\n", out_path);
    else
        std::printf("WARNING: could not write %s\n", out_path);

    std::printf("\nNote: speedups are bounded by the machine's "
                "physical core count (%d detected); the parity "
                "guarantees are checked by tests/test_runtime.cpp at "
                "any thread count.\n", hw);
    return 0;
}
