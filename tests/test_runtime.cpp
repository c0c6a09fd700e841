/**
 * @file
 * Parallel runtime tests: thread-pool semantics (static partitioning,
 * empty ranges, exception propagation, nested-parallelFor sequential
 * fallback) and thread-count parity of the parallel kernels. The
 * Island Consumer, SpMM and GEMM give every output row one owner and
 * a fixed accumulation order, so their results are byte-identical at
 * every thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <tuple>

#include "core/consumer.hpp"
#include "core/locator.hpp"
#include "gcn/reference.hpp"
#include "gcn/training.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "spmm/spmm.hpp"

namespace igcn {
namespace {

constexpr double kTol = 1e-4;
const int kThreadCounts[] = {1, 2, 4, 8};

/** Same shape and the same bytes (NaN-safe, unlike operator==). */
bool
sameBytes(const DenseMatrix &x, const DenseMatrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
        std::memcmp(x.data().data(), y.data().data(),
                    x.data().size() * sizeof(float)) == 0;
}

/** Restore the default global pool after each test. */
class RuntimeTest : public ::testing::Test
{
  protected:
    void TearDown() override { setGlobalThreads(0); }
};

// ---------------------------------------------------------------------
// Thread-pool unit tests
// ---------------------------------------------------------------------

TEST_F(RuntimeTest, EmptyRangeNeverInvokesBody)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(5, 5, [&](int, size_t, size_t) { calls++; });
    pool.parallelFor(7, 3, [&](int, size_t, size_t) { calls++; });
    EXPECT_EQ(calls.load(), 0);
}

TEST_F(RuntimeTest, CoversRangeExactlyOnce)
{
    for (int threads : kThreadCounts) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(1000);
        pool.parallelFor(0, hits.size(),
                         [&](int, size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i)
                hits[i]++;
        });
        for (size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i
                << " at " << threads << " threads";
    }
}

TEST_F(RuntimeTest, StaticPartitionIsContiguousAndOrdered)
{
    ThreadPool pool(4);
    std::mutex mu;
    std::vector<std::tuple<int, size_t, size_t>> chunks;
    pool.parallelFor(10, 110, [&](int w, size_t lo, size_t hi) {
        std::lock_guard<std::mutex> lk(mu);
        chunks.emplace_back(w, lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    ASSERT_EQ(chunks.size(), 4u);
    size_t expect_lo = 10;
    for (int w = 0; w < 4; ++w) {
        EXPECT_EQ(std::get<0>(chunks[w]), w);
        EXPECT_EQ(std::get<1>(chunks[w]), expect_lo);
        expect_lo = std::get<2>(chunks[w]);
    }
    EXPECT_EQ(expect_lo, 110u);
}

TEST_F(RuntimeTest, MinPerWorkerCapsSplit)
{
    ThreadPool pool(8);
    std::mutex mu;
    std::set<int> workers;
    pool.parallelFor(0, 10, [&](int w, size_t, size_t) {
        std::lock_guard<std::mutex> lk(mu);
        workers.insert(w);
    }, /*min_per_worker=*/10);
    EXPECT_EQ(workers.size(), 1u); // whole range fits one chunk
}

TEST_F(RuntimeTest, ExceptionPropagatesToCaller)
{
    for (int threads : kThreadCounts) {
        ThreadPool pool(threads);
        EXPECT_THROW(
            pool.parallelFor(0, 100, [&](int, size_t lo, size_t) {
                if (lo == 0)
                    throw std::runtime_error("chunk failure");
            }),
            std::runtime_error) << threads << " threads";
        // The pool must stay usable after an exception.
        std::atomic<int> sum{0};
        pool.parallelFor(0, 10, [&](int, size_t lo, size_t hi) {
            sum += static_cast<int>(hi - lo);
        });
        EXPECT_EQ(sum.load(), 10);
    }
}

TEST_F(RuntimeTest, NestedParallelForFallsBackToSequential)
{
    // Regression: a nested parallelFor used to throw std::logic_error;
    // it must instead run the whole inner range inline as worker 0.
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(64);
        std::atomic<int> inner_chunks{0};
        std::atomic<bool> saw_nonzero_worker{false};
        pool.parallelFor(0, 4, [&](int, size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i) {
                pool.parallelFor(0, hits.size(),
                                 [&](int w, size_t a, size_t b) {
                    inner_chunks++;
                    if (w != 0)
                        saw_nonzero_worker = true;
                    for (size_t j = a; j < b; ++j)
                        hits[j]++;
                });
            }
        });
        for (size_t j = 0; j < hits.size(); ++j)
            ASSERT_EQ(hits[j].load(), 4) << "index " << j << " at "
                << threads << " threads";
        // Every nested call ran as exactly one inline chunk.
        EXPECT_EQ(inner_chunks.load(), 4) << threads << " threads";
        EXPECT_FALSE(saw_nonzero_worker.load()) << threads << " threads";
    }
}

TEST_F(RuntimeTest, KernelCalledInsideParallelForRunsSequentially)
{
    // Regression for the nested-rejection path: a parallel kernel
    // (which uses the global pool internally) invoked from inside a
    // parallelFor body must degrade to its sequential form and still
    // produce the right answer, not abort.
    setGlobalThreads(4);
    Rng rng(55);
    DenseMatrix a(37, 21), b(21, 13);
    a.fillRandom(rng);
    b.fillRandom(rng);
    const DenseMatrix expected = gemm(a, b);

    CsrGraph g = erdosRenyi(300, 5.0, 71);
    CsrMatrix m = CsrMatrix::fromGraph(g);
    DenseMatrix y(300, 20);
    y.fillRandom(rng);
    const DenseMatrix spmm_expected = spmmPullRowWise(m, y, nullptr);

    std::mutex mu;
    std::vector<DenseMatrix> gemms, spmms;
    globalPool().parallelFor(0, 4, [&](int, size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
            DenseMatrix c = gemm(a, b);
            DenseMatrix s = spmmPullRowWise(m, y, nullptr);
            std::lock_guard<std::mutex> lk(mu);
            gemms.push_back(std::move(c));
            spmms.push_back(std::move(s));
        }
    });
    ASSERT_EQ(gemms.size(), 4u);
    for (const DenseMatrix &c : gemms)
        EXPECT_EQ(c.data(), expected.data());
    for (const DenseMatrix &s : spmms)
        EXPECT_EQ(s.data(), spmm_expected.data());
}

TEST_F(RuntimeTest, GlobalPoolResize)
{
    setGlobalThreads(3);
    EXPECT_EQ(globalThreads(), 3);
    setGlobalThreads(1);
    EXPECT_EQ(globalThreads(), 1);
    setGlobalThreads(0); // restore default sizing
    EXPECT_GE(globalThreads(), 1);
}

// ---------------------------------------------------------------------
// Kernel parity across thread counts
// ---------------------------------------------------------------------

struct FamilyCase
{
    const char *name;
    CsrGraph graph;
};

std::vector<FamilyCase>
graphFamilies()
{
    std::vector<FamilyCase> cases;
    HubIslandParams hp;
    hp.numNodes = 1500;
    hp.seed = 91;
    cases.push_back({"hub-island", hubAndIslandGraph(hp).graph});
    cases.push_back({"erdos-renyi", erdosRenyi(1200, 6.0, 17)});
    cases.push_back({"rmat",
                     rmat(1024, 6000, 0.57, 0.19, 0.19, 23)});
    cases.push_back({"barabasi-albert", barabasiAlbert(1000, 3, 29)});
    return cases;
}

TEST_F(RuntimeTest, AggregateViaIslandsParityAcrossThreads)
{
    for (const FamilyCase &fc : graphFamilies()) {
        IslandizationResult isl = islandize(fc.graph);
        Rng rng(41);
        DenseMatrix y(fc.graph.numNodes(), 24);
        y.fillRandom(rng);
        RedundancyConfig cfg;

        setGlobalThreads(1);
        AggOpStats base_stats;
        DenseMatrix base =
            aggregateViaIslands(fc.graph, isl, y, cfg, &base_stats);

        for (int threads : kThreadCounts) {
            setGlobalThreads(threads);
            AggOpStats stats;
            DenseMatrix z =
                aggregateViaIslands(fc.graph, isl, y, cfg, &stats);
            EXPECT_TRUE(sameBytes(z, base))
                << fc.name << " @ " << threads << " threads";
            // Op accounting is integer arithmetic: must be exact.
            EXPECT_EQ(stats.baselineOps, base_stats.baselineOps)
                << fc.name;
            EXPECT_EQ(stats.optimizedOps(), base_stats.optimizedOps())
                << fc.name;
        }
    }
}

TEST_F(RuntimeTest, AggregateDeterministicPerThreadCount)
{
    // Two runs at the same thread count must agree bit-for-bit: each
    // output row is replayed by one worker in a fixed op order, which
    // leaves no scheduling dependence in the result.
    HubIslandParams hp;
    hp.numNodes = 2000;
    hp.seed = 5;
    CsrGraph g = hubAndIslandGraph(hp).graph;
    IslandizationResult isl = islandize(g);
    Rng rng(77);
    DenseMatrix y(g.numNodes(), 17);
    y.fillRandom(rng);

    setGlobalThreads(4);
    DenseMatrix z1 = aggregateViaIslands(g, isl, y, {});
    DenseMatrix z2 = aggregateViaIslands(g, isl, y, {});
    EXPECT_EQ(z1.data(), z2.data());
}

TEST_F(RuntimeTest, SpmmPullRowWiseParityAcrossThreads)
{
    for (const FamilyCase &fc : graphFamilies()) {
        CsrMatrix a = CsrMatrix::fromGraph(fc.graph);
        Rng vrng(13);
        for (float &v : a.values)
            v = vrng.nextFloat(2.0f);
        Rng rng(19);
        // 100 channels spans one full tile plus a ragged remainder.
        DenseMatrix b(fc.graph.numNodes(), 100);
        b.fillRandom(rng);

        setGlobalThreads(1);
        SpmmCounters base_cnt;
        DenseMatrix base = spmmPullRowWise(a, b, &base_cnt);

        for (int threads : kThreadCounts) {
            setGlobalThreads(threads);
            SpmmCounters cnt;
            DenseMatrix c = spmmPullRowWise(a, b, &cnt);
            // Per-element edge order is thread-invariant: exact.
            EXPECT_EQ(c.data(), base.data())
                << fc.name << " @ " << threads << " threads";
            EXPECT_EQ(cnt.aReads, base_cnt.aReads) << fc.name;
            EXPECT_EQ(cnt.bIrregularReads, base_cnt.bIrregularReads)
                << fc.name;
            EXPECT_EQ(cnt.macOps, base_cnt.macOps) << fc.name;
            EXPECT_EQ(cnt.cStreamedWrites, base_cnt.cStreamedWrites)
                << fc.name;
        }
    }
}

TEST_F(RuntimeTest, GemmParityAcrossThreads)
{
    Rng rng(31);
    // Odd shapes exercise ragged row blocks and k tiles.
    DenseMatrix a(173, 89), b(89, 67);
    a.fillRandom(rng);
    b.fillRandom(rng);

    setGlobalThreads(1);
    DenseMatrix base = gemm(a, b);

    for (int threads : kThreadCounts) {
        setGlobalThreads(threads);
        DenseMatrix c = gemm(a, b);
        EXPECT_EQ(c.data(), base.data()) << threads << " threads";
    }
}

TEST_F(RuntimeTest, ForwardAndTrainingParityAcrossThreads)
{
    HubIslandParams hp;
    hp.numNodes = 800;
    hp.seed = 3;
    CsrGraph g = hubAndIslandGraph(hp).graph;
    IslandizationResult isl = islandize(g);
    Rng rng(9);
    Features x = makeFeatures(g.numNodes(), 32, 0.5, rng);
    std::vector<DenseMatrix> weights;
    weights.emplace_back(32, 16);
    weights.emplace_back(16, 7);
    for (auto &w : weights)
        w.fillRandom(rng, 0.5f);
    DenseMatrix target(g.numNodes(), 7);
    target.fillRandom(rng);

    setGlobalThreads(1);
    DenseMatrix ref = referenceForward(g, x, weights);
    DenseMatrix base_fwd =
        gcnForwardViaIslands(g, isl, x, weights, {});
    ForwardCache base_cache = trainingForward(g, isl, x, weights, {});
    DenseMatrix base_grad_out;
    mseLoss(base_cache.output, target, &base_grad_out);
    Gradients base_grads = trainingBackward(
        g, isl, x, weights, base_cache, base_grad_out, {});

    for (int threads : kThreadCounts) {
        setGlobalThreads(threads);
        DenseMatrix fwd = gcnForwardViaIslands(g, isl, x, weights, {});
        EXPECT_TRUE(sameBytes(fwd, base_fwd)) << threads << " threads";
        EXPECT_LE(maxAbsDiff(fwd, ref), kTol)
            << threads << " threads vs reference";

        ForwardCache cache = trainingForward(g, isl, x, weights, {});
        DenseMatrix grad_out;
        mseLoss(cache.output, target, &grad_out);
        Gradients grads = trainingBackward(g, isl, x, weights, cache,
                                           grad_out, {});
        ASSERT_EQ(grads.weightGrads.size(),
                  base_grads.weightGrads.size());
        EXPECT_TRUE(sameBytes(cache.output, base_cache.output))
            << threads << " threads";
        for (size_t l = 0; l < grads.weightGrads.size(); ++l)
            EXPECT_TRUE(sameBytes(grads.weightGrads[l],
                                  base_grads.weightGrads[l]))
                << "layer " << l << " @ " << threads << " threads";
    }
}

} // namespace
} // namespace igcn
