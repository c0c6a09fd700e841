/**
 * @file
 * Differential and property tests for the parallel kernels.
 *
 * Every kernel that moved onto the thread pool — the four SpMM
 * dataflows and sparseTransposeTimesDense — and the locator's islandize
 * are checked at 1/2/4/8 threads across the four graph families
 * against a sequential reference or a golden result:
 *
 *  - at 1 thread the parallel kernel must be BIT-identical to the
 *    sequential reference (one chunk, one accumulator, same float
 *    order);
 *  - across thread counts results must agree exactly: since the
 *    push-style kernels became race-free gathers over the cached CSC
 *    adjunct, every output element of every dataflow keeps its
 *    sequential accumulation order, so all five SpMM kernels are
 *    bit-identical at any thread count (a stronger property than the
 *    float-reassociation tolerance the old per-worker-buffer scatter
 *    versions guaranteed — which these tests also still imply);
 *  - hardware access counters are arithmetic and must be exact at
 *    every thread count;
 *  - islandize (sequential; it makes no pool call) must give the same
 *    result at every pool size: the island partition (ids,
 *    membership, BFS node order, roles, inter-hub map, per-round
 *    record) AND all statistics and trace entries — the accelerator
 *    timing models depend on that — and must match a golden
 *    fingerprint of the full result.
 *
 * The Island Consumer's compiled plan must be byte-equal, with the
 * same op accounting, to a copy of the seed's sequential bitmap-scan
 * consumer at 1/2/4/8 threads, and reject invalid islandizations at
 * compile time.
 *
 * The dense combination kernels (gemm, gemmTransposeA,
 * gemmTransposeB) must be byte-equal to plain scalar ascending-index
 * loops at 1/4/8 threads, over widths that hit every column-block
 * tail, with inf/NaN operands pinning the zero-skip semantics.
 *
 * A fuzz sweep over randomized small CSR matrices (empty rows,
 * isolated vertices, skewed degree distributions, rectangular shapes)
 * checks all five kernels against a naive triple-loop dense product.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/consumer.hpp"
#include "core/locator.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "spmm/spmm.hpp"

namespace igcn {
namespace {

constexpr double kTol = 1e-4;
const int kThreadCounts[] = {1, 2, 4, 8};

/** Restore the default global pool after each test. */
class ParityTest : public ::testing::Test
{
  protected:
    void TearDown() override { setGlobalThreads(0); }
};

// ---------------------------------------------------------------------
// Sequential references: the seed's (pre-refactor) loop orders,
// verbatim. These never touch the thread pool.
// ---------------------------------------------------------------------

DenseMatrix
seqPullRowWise(const CsrMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.numRows, b.cols());
    for (NodeId i = 0; i < a.numRows; ++i) {
        float *crow = c.row(i);
        for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e) {
            const float aval = a.values[e];
            const float *brow = b.row(a.colIdx[e]);
            for (size_t ch = 0; ch < b.cols(); ++ch)
                crow[ch] += aval * brow[ch];
        }
    }
    return c;
}

DenseMatrix
seqPullInnerProduct(const CsrMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.numRows, b.cols());
    for (NodeId i = 0; i < a.numRows; ++i) {
        for (size_t ch = 0; ch < b.cols(); ++ch) {
            float acc = 0.0f;
            for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e)
                acc += a.values[e] * b.at(a.colIdx[e], ch);
            c.at(i, ch) = acc;
        }
    }
    return c;
}

DenseMatrix
seqPushColumnWise(const CsrMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.numRows, b.cols());
    for (size_t ch = 0; ch < b.cols(); ++ch)
        for (NodeId i = 0; i < a.numRows; ++i)
            for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e)
                c.at(i, ch) += a.values[e] * b.at(a.colIdx[e], ch);
    return c;
}

DenseMatrix
seqPushOuterProduct(const CsrMatrix &a, const DenseMatrix &b)
{
    const size_t channels = b.cols();
    DenseMatrix c(a.numRows, channels);
    std::vector<EdgeId> col_count(a.numCols + 1, 0);
    for (NodeId v : a.colIdx)
        col_count[v + 1]++;
    for (NodeId k = 0; k < a.numCols; ++k)
        col_count[k + 1] += col_count[k];
    std::vector<NodeId> row_of(a.nnz());
    std::vector<float> val_of(a.nnz());
    std::vector<EdgeId> cursor(col_count.begin(), col_count.end() - 1);
    for (NodeId i = 0; i < a.numRows; ++i) {
        for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e) {
            EdgeId slot = cursor[a.colIdx[e]]++;
            row_of[slot] = i;
            val_of[slot] = a.values[e];
        }
    }
    for (NodeId k = 0; k < a.numCols; ++k) {
        const float *brow = b.row(k);
        for (EdgeId e = col_count[k]; e < col_count[k + 1]; ++e) {
            float *crow = c.row(row_of[e]);
            for (size_t ch = 0; ch < channels; ++ch)
                crow[ch] += val_of[e] * brow[ch];
        }
    }
    return c;
}

DenseMatrix
seqTransposeTimesDense(const CsrMatrix &x, const DenseMatrix &b)
{
    DenseMatrix c(x.numCols, b.cols());
    for (NodeId r = 0; r < x.numRows; ++r) {
        const float *brow = b.row(r);
        for (EdgeId e = x.rowPtr[r]; e < x.rowPtr[r + 1]; ++e) {
            float *crow = c.row(x.colIdx[e]);
            const float v = x.values[e];
            for (size_t j = 0; j < b.cols(); ++j)
                crow[j] += v * brow[j];
        }
    }
    return c;
}

/** Naive dense C = A * B with ascending-k float accumulation. */
DenseMatrix
naiveDenseProduct(const DenseMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t ch = 0; ch < b.cols(); ++ch) {
            float acc = 0.0f;
            for (size_t k = 0; k < a.cols(); ++k)
                acc += a.at(i, k) * b.at(k, ch);
            c.at(i, ch) = acc;
        }
    return c;
}

/** Naive dense C = A^T * B. */
DenseMatrix
naiveDenseTransposeProduct(const DenseMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.cols(), b.cols());
    for (size_t j = 0; j < a.cols(); ++j)
        for (size_t ch = 0; ch < b.cols(); ++ch) {
            float acc = 0.0f;
            for (size_t k = 0; k < a.rows(); ++k)
                acc += a.at(k, j) * b.at(k, ch);
            c.at(j, ch) = acc;
        }
    return c;
}

// ---------------------------------------------------------------------
// Shared inputs
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

/** Weighted adjacency + feature matrix for one family graph. */
void
makeOperands(const CsrGraph &g, CsrMatrix &a, DenseMatrix &b,
             size_t channels = 100)
{
    a = CsrMatrix::fromGraph(g);
    Rng vrng(13);
    for (float &v : a.values)
        v = vrng.nextFloat(2.0f);
    Rng rng(19);
    // 100 channels spans one full channel tile plus a ragged rest.
    b = DenseMatrix(g.numNodes(), channels);
    b.fillRandom(rng);
}

void
expectCountersEqual(const SpmmCounters &a, const SpmmCounters &b,
                    const std::string &ctx)
{
    EXPECT_EQ(a.macOps, b.macOps) << ctx;
    EXPECT_EQ(a.aReads, b.aReads) << ctx;
    EXPECT_EQ(a.bStreamedReads, b.bStreamedReads) << ctx;
    EXPECT_EQ(a.bIrregularReads, b.bIrregularReads) << ctx;
    EXPECT_EQ(a.cStreamedWrites, b.cStreamedWrites) << ctx;
    EXPECT_EQ(a.cIrregularWrites, b.cIrregularWrites) << ctx;
}

// ---------------------------------------------------------------------
// SpMM dataflows + transpose: differential across thread counts
// ---------------------------------------------------------------------

using SpmmFn = DenseMatrix (*)(const CsrMatrix &, const DenseMatrix &,
                               SpmmCounters *);
using SeqFn = DenseMatrix (*)(const CsrMatrix &, const DenseMatrix &);

struct KernelCase
{
    const char *name;
    SpmmFn fn;
    SeqFn seq;
    /** Result is bit-identical at every thread count (every output
     *  element keeps its sequential accumulation order under
     *  sharding). True for all four dataflows now that the
     *  outer-product runs as a race-free row gather instead of a
     *  buffered column scatter. */
    bool bitExactAcrossThreads;
};

const KernelCase kKernels[] = {
    {"pull-row-wise", &spmmPullRowWise, &seqPullRowWise, true},
    {"pull-inner-product", &spmmPullInnerProduct,
     &seqPullInnerProduct, true},
    {"push-column-wise", &spmmPushColumnWise, &seqPushColumnWise,
     true},
    {"push-outer-product", &spmmPushOuterProduct,
     &seqPushOuterProduct, true},
};

TEST_F(ParityTest, SpmmDataflowsMatchSequentialAcrossThreads)
{
    for (const FamilyCase &fc : graphFamilies()) {
        CsrMatrix a;
        DenseMatrix b;
        makeOperands(fc.graph, a, b);

        for (const KernelCase &k : kKernels) {
            const DenseMatrix ref = k.seq(a, b);

            setGlobalThreads(1);
            SpmmCounters base_cnt;
            const DenseMatrix base = k.fn(a, b, &base_cnt);
            // One thread = one chunk = the sequential float order.
            EXPECT_EQ(base.data(), ref.data())
                << k.name << " on " << fc.name << " @ 1 thread";

            for (int threads : kThreadCounts) {
                const std::string ctx = std::string(k.name) + " on " +
                    fc.name + " @ " + std::to_string(threads) +
                    " threads";
                setGlobalThreads(threads);
                SpmmCounters cnt;
                const DenseMatrix c = k.fn(a, b, &cnt);
                if (k.bitExactAcrossThreads)
                    EXPECT_EQ(c.data(), base.data()) << ctx;
                else
                    EXPECT_LE(maxAbsDiff(c, base), kTol) << ctx;
                expectCountersEqual(cnt, base_cnt, ctx);
                // Same thread count twice: no scheduling dependence.
                const DenseMatrix c2 = k.fn(a, b, nullptr);
                EXPECT_EQ(c2.data(), c.data()) << ctx << " (rerun)";
            }
        }
    }
}

TEST_F(ParityTest, SparseTransposeTimesDenseMatchesSequentialAcrossThreads)
{
    for (const FamilyCase &fc : graphFamilies()) {
        CsrMatrix a;
        DenseMatrix b;
        makeOperands(fc.graph, a, b);
        const DenseMatrix ref = seqTransposeTimesDense(a, b);

        setGlobalThreads(1);
        const DenseMatrix base = sparseTransposeTimesDense(a, b);
        EXPECT_EQ(base.data(), ref.data())
            << fc.name << " @ 1 thread";

        for (int threads : kThreadCounts) {
            setGlobalThreads(threads);
            const DenseMatrix c = sparseTransposeTimesDense(a, b);
            // Tolerance-equality required, bit-identity delivered:
            // each output row gathers its CSC column in ascending
            // row order at every thread count.
            EXPECT_LE(maxAbsDiff(c, base), kTol)
                << fc.name << " @ " << threads << " threads";
            EXPECT_EQ(c.data(), base.data())
                << fc.name << " @ " << threads << " threads";
            const DenseMatrix c2 = sparseTransposeTimesDense(a, b);
            EXPECT_EQ(c2.data(), c.data())
                << fc.name << " @ " << threads << " threads (rerun)";
        }
    }
}

// ---------------------------------------------------------------------
// CSC adjunct cache invariants
// ---------------------------------------------------------------------

/** From-scratch CSC transpose with the pre-refactor build loop. */
CscIndex
referenceCsc(const CsrMatrix &a)
{
    CscIndex idx;
    idx.colPtr.assign(static_cast<size_t>(a.numCols) + 1, 0);
    idx.rowOf.resize(a.nnz());
    idx.valOf.resize(a.nnz());
    for (NodeId v : a.colIdx)
        idx.colPtr[v + 1]++;
    for (NodeId k = 0; k < a.numCols; ++k)
        idx.colPtr[k + 1] += idx.colPtr[k];
    std::vector<EdgeId> cursor(idx.colPtr.begin(),
                               idx.colPtr.end() - 1);
    for (NodeId i = 0; i < a.numRows; ++i) {
        for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e) {
            const EdgeId slot = cursor[a.colIdx[e]]++;
            idx.rowOf[slot] = i;
            idx.valOf[slot] = a.values[e];
        }
    }
    return idx;
}

TEST_F(ParityTest, CscAdjunctMatchesFromScratchTranspose)
{
    for (const FamilyCase &fc : graphFamilies()) {
        CsrMatrix a;
        DenseMatrix b;
        makeOperands(fc.graph, a, b);
        const CscIndex ref = referenceCsc(a);
        const CscIndex &csc = a.csc();
        EXPECT_EQ(csc.colPtr, ref.colPtr) << fc.name;
        EXPECT_EQ(csc.rowOf, ref.rowOf) << fc.name;
        EXPECT_EQ(csc.valOf, ref.valOf) << fc.name;
        // Cached: the same object is handed back on every call.
        EXPECT_EQ(&a.csc(), &csc) << fc.name;
    }
}

TEST_F(ParityTest, CscAdjunctBuildsOnceUnderConcurrentFirstUse)
{
    CsrMatrix a;
    DenseMatrix b;
    makeOperands(graphFamilies().front().graph, a, b);
    const CscIndex ref = referenceCsc(a);

    constexpr int kThreads = 8;
    std::vector<const CscIndex *> seen(kThreads, nullptr);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Barrier so all first uses really race.
            ready.fetch_add(1);
            while (ready.load() < kThreads) {}
            seen[t] = &a.csc();
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(seen[t], nullptr) << "thread " << t;
        // One-time construction: every concurrent first caller saw
        // the same built object.
        EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    }
    EXPECT_EQ(seen[0]->colPtr, ref.colPtr);
    EXPECT_EQ(seen[0]->rowOf, ref.rowOf);
    EXPECT_EQ(seen[0]->valOf, ref.valOf);
}

TEST_F(ParityTest, CscAdjunctInvalidatesOnMutationAndAssignment)
{
    CsrMatrix a = denseToCsr([] {
        Rng rng(5);
        DenseMatrix m(12, 9);
        m.fillRandomSparse(rng, 0.3);
        return m;
    }());
    (void)a.csc(); // build

    // Mutating the non-zeros + invalidateCsc() rebuilds on next use.
    for (float &v : a.values)
        v *= 2.0f;
    a.invalidateCsc();
    const CscIndex fresh = referenceCsc(a);
    EXPECT_EQ(a.csc().valOf, fresh.valOf);

    // Assignment drops the target's cache: the reassigned matrix
    // must serve its new transpose, not the stale one.
    CsrMatrix other = denseToCsr([] {
        Rng rng(6);
        DenseMatrix m(7, 15);
        m.fillRandomSparse(rng, 0.4);
        return m;
    }());
    (void)other.csc();
    other = a;
    const CscIndex &after = other.csc();
    EXPECT_EQ(after.colPtr, a.csc().colPtr);
    EXPECT_EQ(after.rowOf, a.csc().rowOf);
    EXPECT_EQ(after.valOf, a.csc().valOf);

    // Copies start with an empty cache and build their own index.
    EXPECT_NE(&after, &a.csc());

    // Moving transfers the built adjunct (the destination now owns
    // exactly the arrays it describes — no rebuild), and the
    // moved-from matrix must not keep serving the old transpose:
    // its slot is empty and rebuilds to an empty index.
    CsrMatrix moved = std::move(other);
    EXPECT_EQ(&moved.csc(), &after);
    EXPECT_TRUE(other.csc().rowOf.empty());
    EXPECT_EQ(moved.csc().valOf, fresh.valOf);
}

TEST_F(ParityTest, TransposeGatherBitIdenticalThroughCachedAndColdCsc)
{
    // sparseTransposeTimesDense is the kernel that reads the adjunct
    // (the outer product gathers over the matrix's own CSR arrays):
    // a cold call (fresh matrix, cache built inside the kernel) and
    // a warm call (cache primed beforehand) must agree bitwise.
    for (int threads : {1, 4}) {
        setGlobalThreads(threads);
        CsrMatrix cold;
        DenseMatrix b;
        makeOperands(graphFamilies().front().graph, cold, b);
        CsrMatrix warm = cold;
        (void)warm.csc();
        EXPECT_EQ(sparseTransposeTimesDense(cold, b).data(),
                  sparseTransposeTimesDense(warm, b).data())
            << threads << " threads";
    }
}

// ---------------------------------------------------------------------
// Islandize: identical partition at every thread count
// ---------------------------------------------------------------------

void
expectSamePartition(const IslandizationResult &a,
                    const IslandizationResult &b,
                    const std::string &ctx)
{
    ASSERT_EQ(a.islands.size(), b.islands.size()) << ctx;
    for (size_t i = 0; i < a.islands.size(); ++i) {
        EXPECT_EQ(a.islands[i].nodes, b.islands[i].nodes)
            << ctx << ", island " << i;
        EXPECT_EQ(a.islands[i].hubs, b.islands[i].hubs)
            << ctx << ", island " << i;
        EXPECT_EQ(a.islands[i].round, b.islands[i].round)
            << ctx << ", island " << i;
        EXPECT_EQ(a.islands[i].edgesScanned, b.islands[i].edgesScanned)
            << ctx << ", island " << i;
    }
    EXPECT_TRUE(a.role == b.role) << ctx;
    EXPECT_TRUE(a.islandOf == b.islandOf) << ctx;
    EXPECT_TRUE(a.hubRound == b.hubRound) << ctx;
    EXPECT_TRUE(a.interHubEdges == b.interHubEdges) << ctx;
    EXPECT_TRUE(a.thresholds == b.thresholds) << ctx;
    EXPECT_EQ(a.numRounds, b.numRounds) << ctx;
    ASSERT_EQ(a.rounds.size(), b.rounds.size()) << ctx;
    for (size_t r = 0; r < a.rounds.size(); ++r) {
        EXPECT_EQ(a.rounds[r].threshold, b.rounds[r].threshold)
            << ctx << ", round " << r;
        EXPECT_EQ(a.rounds[r].nodesChecked, b.rounds[r].nodesChecked)
            << ctx << ", round " << r;
        EXPECT_EQ(a.rounds[r].hubsDetected, b.rounds[r].hubsDetected)
            << ctx << ", round " << r;
        EXPECT_EQ(a.rounds[r].islandsFound, b.rounds[r].islandsFound)
            << ctx << ", round " << r;
    }
    ASSERT_EQ(a.taskTrace.size(), b.taskTrace.size()) << ctx;
    for (size_t i = 0; i < a.taskTrace.size(); ++i) {
        EXPECT_EQ(a.taskTrace[i].round, b.taskTrace[i].round)
            << ctx << ", trace " << i;
        EXPECT_EQ(a.taskTrace[i].outcome, b.taskTrace[i].outcome)
            << ctx << ", trace " << i;
        EXPECT_EQ(a.taskTrace[i].edgesScanned,
                  b.taskTrace[i].edgesScanned) << ctx << ", trace " << i;
        EXPECT_EQ(a.taskTrace[i].hubDegree, b.taskTrace[i].hubDegree)
            << ctx << ", trace " << i;
    }
    for (size_t r = 0; r < a.rounds.size(); ++r)
        EXPECT_EQ(a.rounds[r].edgesScanned, b.rounds[r].edgesScanned)
            << ctx << ", round " << r;
}

void
expectSameStats(const LocatorStats &a, const LocatorStats &b,
                const std::string &ctx)
{
    EXPECT_EQ(a.tasksGenerated, b.tasksGenerated) << ctx;
    EXPECT_EQ(a.tasksDroppedStartVisited, b.tasksDroppedStartVisited)
        << ctx;
    EXPECT_EQ(a.tasksDroppedCollision, b.tasksDroppedCollision) << ctx;
    EXPECT_EQ(a.tasksDroppedOversize, b.tasksDroppedOversize) << ctx;
    EXPECT_EQ(a.tasksInterHub, b.tasksInterHub) << ctx;
    EXPECT_EQ(a.islandsFound, b.islandsFound) << ctx;
    EXPECT_EQ(a.hubDetectChecks, b.hubDetectChecks) << ctx;
    EXPECT_EQ(a.adjListFetches, b.adjListFetches) << ctx;
    EXPECT_EQ(a.edgesScanned, b.edgesScanned) << ctx;
    EXPECT_EQ(a.edgesScannedWasted, b.edgesScannedWasted) << ctx;
}

/**
 * FNV-1a over a stream of integers. Each value is fed field by field,
 * least-significant byte first, so the hash is independent of struct
 * padding and host byte order.
 */
class Fnv1a
{
  public:
    template <typename T>
    void
    add(T v)
    {
        uint64_t bits;
        if constexpr (std::is_enum_v<T>)
            bits = static_cast<uint64_t>(
                static_cast<std::underlying_type_t<T>>(v));
        else
            bits = static_cast<uint64_t>(v);
        for (size_t i = 0; i < sizeof(T); ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }

    template <typename T>
    void
    addAll(const std::vector<T> &vs)
    {
        add(static_cast<uint64_t>(vs.size()));
        for (const T &v : vs)
            add(v);
    }

    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ull;
};

/** Fingerprint of every field of an islandization result. */
uint64_t
fingerprint(const IslandizationResult &r)
{
    Fnv1a f;
    f.add(static_cast<uint64_t>(r.islands.size()));
    for (const Island &isl : r.islands) {
        f.addAll(isl.nodes);
        f.addAll(isl.hubs);
        f.add(isl.round);
        f.add(isl.edgesScanned);
    }
    f.add(static_cast<uint64_t>(r.rounds.size()));
    for (const RoundInfo &ri : r.rounds) {
        f.add(ri.threshold);
        f.add(ri.nodesChecked);
        f.add(ri.hubsDetected);
        f.add(ri.edgesScanned);
        f.add(ri.islandsFound);
    }
    f.add(static_cast<uint64_t>(r.taskTrace.size()));
    for (const TaskTrace &t : r.taskTrace) {
        f.add(t.round);
        f.add(t.outcome);
        f.add(t.edgesScanned);
        f.add(t.hubDegree);
    }
    f.addAll(r.role);
    f.addAll(r.islandOf);
    f.addAll(r.hubRound);
    f.add(static_cast<uint64_t>(r.interHubEdges.size()));
    for (const Edge &e : r.interHubEdges) {
        f.add(e.first);
        f.add(e.second);
    }
    f.addAll(r.thresholds);
    f.add(r.numRounds);
    const LocatorStats &s = r.stats;
    for (uint64_t v : {s.tasksGenerated, s.tasksDroppedStartVisited,
                       s.tasksDroppedCollision, s.tasksDroppedOversize,
                       s.tasksInterHub, s.islandsFound, s.hubDetectChecks,
                       s.adjListFetches, s.edgesScanned,
                       s.edgesScannedWasted})
        f.add(v);
    return f.value();
}

TEST_F(ParityTest, IslandizeMatchesGoldenFingerprint)
{
    // Fingerprints of the full sequential-mode result (partition, ids,
    // BFS order, per-round records, every stat, the task trace),
    // recorded from the worker-sharded locator this sequential one
    // replaced. Any change to what islandize computes — the
    // accelerator models consume all of these fields — fails here.
    struct Golden
    {
        NodeId cmax;
        uint64_t fp[4]; // one per graphFamilies() entry, in order
    };
    const Golden kGolden[] = {
        {4, {0x0c75658540b2e61aull, 0x6249477b0d0b479bull,
             0xd87452b1e20cd9b7ull, 0x5a99cf598144ec14ull}},
        {64, {0xc2130ad68779b302ull, 0xb6e68d191166b9c9ull,
              0x0273d86bc6f93ea5ull, 0xad77881727a3650cull}},
    };
    const std::vector<FamilyCase> families = graphFamilies();
    for (const Golden &gold : kGolden) {
        LocatorConfig cfg;
        cfg.maxIslandSize = gold.cmax;
        cfg.recordTrace = true;
        for (size_t i = 0; i < families.size(); ++i) {
            for (int threads : kThreadCounts) {
                setGlobalThreads(threads);
                const uint64_t fp =
                    fingerprint(islandize(families[i].graph, cfg));
                char hex[19];
                std::snprintf(hex, sizeof hex, "%#018llx",
                              static_cast<unsigned long long>(fp));
                EXPECT_EQ(fp, gold.fp[i])
                    << families[i].name << ", cmax " << gold.cmax
                    << " @ " << threads << " threads: got " << hex;
            }
        }
    }
}

TEST_F(ParityTest, IslandizePartitionIdenticalAcrossThreads)
{
    // The locator runs no pool work, so not just the partition but
    // EVERY statistic and trace entry must equal the 1-thread run at
    // any pool size: the cycle-level accelerator models consume these
    // stats, and their modeled latency must not depend on
    // IGCN_THREADS.
    for (const FamilyCase &fc : graphFamilies()) {
        LocatorConfig cfg;
        cfg.recordTrace = true;
        setGlobalThreads(1);
        const IslandizationResult base = islandize(fc.graph, cfg);

        for (int threads : kThreadCounts) {
            const std::string ctx = std::string(fc.name) + " @ " +
                std::to_string(threads) + " threads";
            setGlobalThreads(threads);
            const IslandizationResult isl = islandize(fc.graph, cfg);
            expectSamePartition(isl, base, ctx);
            expectSameStats(isl.stats, base.stats, ctx);
            // And bit-stable across reruns at the same count.
            const IslandizationResult again = islandize(fc.graph, cfg);
            expectSamePartition(again, isl, ctx + " (rerun)");
            expectSameStats(again.stats, isl.stats, ctx + " (rerun)");
        }
    }
}

TEST_F(ParityTest, IslandizeSmallIslandConfigAcrossThreads)
{
    // Small cmax exercises the oversize path (break condition B),
    // whose kept marks make later tasks drop at start: partition AND
    // stats must still match the 1-thread run exactly.
    auto hi = hubAndIslandGraph({.numNodes = 1200, .seed = 47});
    LocatorConfig cfg;
    cfg.maxIslandSize = 4;
    cfg.recordTrace = true;

    setGlobalThreads(1);
    const IslandizationResult base = islandize(hi.graph, cfg);

    for (int threads : kThreadCounts) {
        setGlobalThreads(threads);
        const IslandizationResult isl = islandize(hi.graph, cfg);
        expectSamePartition(isl, base,
                            "cmax=4 @ " + std::to_string(threads));
        expectSameStats(isl.stats, base.stats,
                        "cmax=4 @ " + std::to_string(threads));
    }
}

// ---------------------------------------------------------------------
// Property/fuzz: randomized CSR vs. naive dense reference
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Dense combination kernels: byte-equal to plain scalar loops
// ---------------------------------------------------------------------

/** c(i, j) = sum over ascending k of a(i, k) * b(k, j), zero a skipped. */
DenseMatrix
scalarGemm(const DenseMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < b.cols(); ++j) {
            float acc = 0.0f;
            for (size_t k = 0; k < a.cols(); ++k) {
                if (a.at(i, k) == 0.0f)
                    continue;
                acc += a.at(i, k) * b.at(k, j);
            }
            c.at(i, j) = acc;
        }
    return c;
}

/** c(i, j) = sum over ascending r of a(r, i) * b(r, j), zero a skipped. */
DenseMatrix
scalarGemmTransposeA(const DenseMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.cols(), b.cols());
    for (size_t i = 0; i < a.cols(); ++i)
        for (size_t j = 0; j < b.cols(); ++j) {
            float acc = 0.0f;
            for (size_t r = 0; r < a.rows(); ++r) {
                if (a.at(r, i) == 0.0f)
                    continue;
                acc += a.at(r, i) * b.at(r, j);
            }
            c.at(i, j) = acc;
        }
    return c;
}

/** c(i, j) = sum over ascending k of a(i, k) * b(j, k), every term. */
DenseMatrix
scalarGemmTransposeB(const DenseMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.rows(), b.rows());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < b.rows(); ++j) {
            float acc = 0.0f;
            for (size_t k = 0; k < a.cols(); ++k)
                acc += a.at(i, k) * b.at(j, k);
            c.at(i, j) = acc;
        }
    return c;
}

/** Same shape and the same bytes (NaN-safe, unlike operator==). */
bool
sameBytes(const DenseMatrix &x, const DenseMatrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
        std::memcmp(x.data().data(), y.data().data(),
                    x.data().size() * sizeof(float)) == 0;
}

/** (output width n, reduction length k, density of the A operand). */
class DenseKernelParityTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, double>>
{
  protected:
    void TearDown() override { setGlobalThreads(0); }
};

TEST_P(DenseKernelParityTest, ByteEqualToScalarLoopsAcrossThreads)
{
    const auto [n, k, density] = GetParam();
    // 67 rows: 8 workers still get several rows each.
    constexpr size_t kRows = 67;
    Rng rng(k * 131 + n);

    // gemm: A (rows x k) * B (k x n). Column 0 of A is all zero
    // opposite a B row of inf/NaN, which a skipped term never
    // reaches; one NaN in A is a non-zero and must propagate.
    DenseMatrix a(kRows, k), b(k, n);
    a.fillRandomSparse(rng, density);
    b.fillRandom(rng);
    for (size_t i = 0; i < kRows; ++i)
        a.at(i, 0) = 0.0f;
    for (size_t j = 0; j < n; ++j)
        b.at(0, j) = j % 2 ? std::numeric_limits<float>::quiet_NaN()
                           : std::numeric_limits<float>::infinity();
    a.at(kRows / 2, k - 1) = std::numeric_limits<float>::quiet_NaN();

    // gemmTransposeA: A^T (k x rows) * U (rows x n). Row 0 of A is
    // all zero opposite a U row of inf/NaN.
    DenseMatrix at(kRows, k), u(kRows, n);
    at.fillRandomSparse(rng, density);
    u.fillRandom(rng);
    for (size_t i = 0; i < k; ++i)
        at.at(0, i) = 0.0f;
    for (size_t j = 0; j < n; ++j)
        u.at(0, j) = j % 2 ? std::numeric_limits<float>::quiet_NaN()
                           : std::numeric_limits<float>::infinity();

    // gemmTransposeB: AT (rows x k) * W^T, W (n x k). Nothing is
    // skipped: the inf in W opposite AT's all-zero row 0 makes
    // c(0, n - 1) NaN. Each chain meets at most one non-finite term:
    // which payload survives NaN + NaN depends on operand order,
    // which the compiler may swap.
    DenseMatrix w(n, k);
    w.fillRandom(rng);
    w.at(n - 1, 0) = std::numeric_limits<float>::infinity();

    const DenseMatrix ref_ab = scalarGemm(a, b);
    const DenseMatrix ref_atb = scalarGemmTransposeA(at, u);
    const DenseMatrix ref_abt = scalarGemmTransposeB(at, w);
    for (int threads : {1, 4, 8}) {
        setGlobalThreads(threads);
        const std::string ctx = "n " + std::to_string(n) + " k " +
            std::to_string(k) + " density " + std::to_string(density) +
            " @ " + std::to_string(threads) + " threads";
        EXPECT_TRUE(sameBytes(gemm(a, b), ref_ab)) << "gemm, " << ctx;
        EXPECT_TRUE(sameBytes(gemmTransposeA(at, u), ref_atb))
            << "gemmTransposeA, " << ctx;
        EXPECT_TRUE(sameBytes(gemmTransposeB(at, w), ref_abt))
            << "gemmTransposeB, " << ctx;
    }
}

// Widths 3/16/17/64/65 cover the 32-, 16-, 8- and 4-wide column blocks
// and the scalar 1-3 column tail.
INSTANTIATE_TEST_SUITE_P(
    Shapes, DenseKernelParityTest,
    ::testing::Combine(::testing::Values(size_t{3}, size_t{16},
                                         size_t{17}, size_t{64},
                                         size_t{65}),
                       ::testing::Values(size_t{7}, size_t{500},
                                         size_t{1433}),
                       ::testing::Values(0.01, 0.1, 1.0)));

/**
 * Random CSR matrix with adversarial structure: empty rows, isolated
 * (never-referenced) columns, skewed per-row densities, rectangular
 * shapes. Duplicate-free by construction (dense origin).
 */
DenseMatrix
randomSparseDense(Rng &rng)
{
    const size_t rows = 1 + rng.nextBounded(32);
    const size_t cols = 1 + rng.nextBounded(32);
    DenseMatrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
        if (rng.nextBool(0.25))
            continue; // empty row
        // Power-law row densities: a few heavy rows, many light ones.
        const double density =
            static_cast<double>(rng.nextPowerLaw(1, 100, 2.0)) / 100.0;
        for (size_t c = 0; c < cols; ++c) {
            if (rng.nextBool(density)) {
                float v = rng.nextFloat(2.0f);
                m.at(r, c) = v == 0.0f ? 1.0f : v;
            }
        }
    }
    return m;
}

TEST_F(ParityTest, FuzzAgainstNaiveDenseReference)
{
    Rng rng(0xF00D);
    for (int threads : {1, 3, 8}) {
        setGlobalThreads(threads);
        for (int iter = 0; iter < 25; ++iter) {
            const DenseMatrix ad = randomSparseDense(rng);
            const CsrMatrix a = denseToCsr(ad);
            DenseMatrix b(ad.cols(), 1 + rng.nextBounded(20));
            b.fillRandom(rng);
            const DenseMatrix expected = naiveDenseProduct(ad, b);
            const std::string ctx = "iter " + std::to_string(iter) +
                " (" + std::to_string(ad.rows()) + "x" +
                std::to_string(ad.cols()) + "x" +
                std::to_string(b.cols()) + ") @ " +
                std::to_string(threads) + " threads";

            for (const KernelCase &k : kKernels) {
                const DenseMatrix c = k.fn(a, b, nullptr);
                EXPECT_LE(maxAbsDiff(c, expected), kTol)
                    << k.name << ", " << ctx;
            }

            // Transpose kernel against A^T B; B must have numRows
            // rows here.
            DenseMatrix bt(ad.rows(), b.cols());
            bt.fillRandom(rng);
            const DenseMatrix t = sparseTransposeTimesDense(a, bt);
            EXPECT_LE(maxAbsDiff(t, naiveDenseTransposeProduct(ad, bt)),
                      kTol) << "transpose, " << ctx;
        }
    }
}

TEST_F(ParityTest, FuzzIslandizeOnRandomGraphs)
{
    // Random graphs with isolated vertices and skewed degrees: the
    // partition must be identical at 1 and 8 threads.
    Rng seeds(0xBEEF);
    for (int iter = 0; iter < 8; ++iter) {
        const NodeId n = 20 + static_cast<NodeId>(seeds.nextBounded(300));
        const double deg = 0.5 + 5.0 * seeds.nextDouble();
        CsrGraph g = erdosRenyi(n, deg, seeds.next());
        LocatorConfig cfg;
        cfg.maxIslandSize = 1 + static_cast<NodeId>(seeds.nextBounded(16));

        setGlobalThreads(1);
        const IslandizationResult base = islandize(g, cfg);
        setGlobalThreads(8);
        const IslandizationResult isl = islandize(g, cfg);
        expectSamePartition(isl, base,
                            "iter " + std::to_string(iter));
        expectSameStats(isl.stats, base.stats,
                        "iter " + std::to_string(iter));
    }
}


// ---------------------------------------------------------------------
// Island Consumer: the compiled plan against the seed's sequential
// bitmap-scan consumer, verbatim apart from a simpler bitmap build
// ---------------------------------------------------------------------

/** The seed's local adjacency bitmap of one island. */
struct OracleBitmap
{
    int numHubs = 0;
    int numNodes = 0;
    int rowStride = 0;
    std::vector<uint64_t> bits;

    int width() const { return numHubs + numNodes; }
    int height() const { return numHubs + numNodes; }

    bool
    test(int r, int c) const
    {
        return (bits[static_cast<size_t>(r) * rowStride + c / 64] >>
                (c % 64)) & 1;
    }

    void
    set(int r, int c)
    {
        bits[static_cast<size_t>(r) * rowStride + c / 64] |=
            uint64_t{1} << (c % 64);
    }

    int
    countBitsInWindow(int r, int c0, int c1) const
    {
        int total = 0;
        for (int c = c0; c < c1; ++c)
            total += test(r, c);
        return total;
    }
};

/** Columns [island nodes..., hubs...]; local must be all -1. */
OracleBitmap
oracleBitmap(const CsrGraph &g, const Island &island,
             bool include_self_loops, std::vector<int> &local)
{
    OracleBitmap bm;
    bm.numHubs = static_cast<int>(island.hubs.size());
    bm.numNodes = static_cast<int>(island.nodes.size());
    bm.rowStride = (bm.width() + 63) / 64;
    bm.bits.assign(static_cast<size_t>(bm.height()) * bm.rowStride, 0);
    for (int i = 0; i < bm.numNodes; ++i)
        local[island.nodes[i]] = i;
    for (int h = 0; h < bm.numHubs; ++h)
        local[island.hubs[h]] = bm.numNodes + h;
    for (int i = 0; i < bm.numNodes; ++i) {
        for (NodeId nb : g.neighbors(island.nodes[i]))
            bm.set(i, local[nb]);
        if (include_self_loops)
            bm.set(i, i);
    }
    for (int h = 0; h < bm.numHubs; ++h)
        for (int i = 0; i < bm.numNodes; ++i)
            if (g.hasEdge(island.hubs[h], island.nodes[i]))
                bm.set(bm.numNodes + h, i);
    for (NodeId v : island.nodes)
        local[v] = -1;
    for (NodeId h : island.hubs)
        local[h] = -1;
    return bm;
}

AggOpStats
oracleCountAtK(const OracleBitmap &bm, int k, bool lazy_preagg)
{
    AggOpStats s;
    s.chosenK = k;
    const int width = bm.width();
    const int num_groups = (width + k - 1) / k;
    std::vector<bool> group_used(num_groups, false);
    for (int r = 0; r < bm.height(); ++r) {
        for (int grp = 0; grp < num_groups; ++grp) {
            const int c0 = grp * k;
            const int c1 = std::min(width, c0 + k);
            const int k_eff = c1 - c0;
            const int z = bm.countBitsInWindow(r, c0, c1);
            s.baselineOps += z;
            if (z == 0) {
                s.windowsSkipped++;
                continue;
            }
            const uint64_t add_cost = z;
            const uint64_t sub_cost = 1 + (k_eff - z);
            if (k_eff >= 2 && sub_cost < add_cost) {
                s.windowOps += sub_cost;
                s.windowsSubtractMode++;
                group_used[grp] = true;
            } else {
                s.windowOps += add_cost;
            }
        }
    }
    for (int grp = 0; grp < num_groups; ++grp) {
        const int c0 = grp * k;
        const int k_eff = std::min(width, c0 + k) - c0;
        if (k_eff < 2)
            continue;
        if (lazy_preagg && !group_used[grp])
            continue;
        s.preaggOps += k_eff - 1;
    }
    return s;
}

AggOpStats
oracleCountNoRemoval(const OracleBitmap &bm)
{
    AggOpStats s;
    s.chosenK = 0;
    for (int r = 0; r < bm.height(); ++r)
        s.baselineOps += bm.countBitsInWindow(r, 0, bm.width());
    s.windowOps = s.baselineOps;
    return s;
}

AggOpStats
oracleCountIslandAggOps(const OracleBitmap &bm,
                        const RedundancyConfig &cfg)
{
    if (!cfg.adaptiveK) {
        if (cfg.k < 2)
            return oracleCountNoRemoval(bm);
        return oracleCountAtK(bm, cfg.k, cfg.lazyPreagg);
    }
    AggOpStats best = oracleCountNoRemoval(bm);
    for (int k : {2, 4, 8, 16}) {
        if (k > bm.width() && k != 2)
            continue;
        AggOpStats candidate = oracleCountAtK(bm, k, cfg.lazyPreagg);
        if (candidate.optimizedOps() < best.optimizedOps())
            best = candidate;
    }
    return best;
}

/** The seed's evaluateIsland: presums, then every row's windows. */
void
oracleEvaluateIsland(const OracleBitmap &bm, const Island &island,
                     const DenseMatrix &y, DenseMatrix &z,
                     DenseMatrix &hub_partial,
                     const std::vector<uint32_t> &hub_index, int k)
{
    const size_t channels = y.cols();
    const int width = bm.width();
    std::vector<NodeId> col_node(width);
    for (int i = 0; i < bm.numNodes; ++i)
        col_node[i] = island.nodes[i];
    for (int h = 0; h < bm.numHubs; ++h)
        col_node[bm.numNodes + h] = island.hubs[h];

    const int num_groups = k >= 2 ? (width + k - 1) / k : 0;
    DenseMatrix presum(num_groups ? num_groups : 1, channels);
    for (int grp = 0; grp < num_groups; ++grp) {
        const int c0 = grp * k;
        const int c1 = std::min(width, c0 + k);
        float *dst = presum.row(grp);
        for (int c = c0; c < c1; ++c) {
            const float *src = y.row(col_node[c]);
            for (size_t ch = 0; ch < channels; ++ch)
                dst[ch] += src[ch];
        }
    }

    for (int r = 0; r < bm.height(); ++r) {
        float *out = r < bm.numNodes
            ? z.row(col_node[r])
            : hub_partial.row(hub_index[col_node[r]]);
        if (k < 2) {
            for (int c = 0; c < width; ++c) {
                if (!bm.test(r, c)) continue;
                const float *src = y.row(col_node[c]);
                for (size_t ch = 0; ch < channels; ++ch)
                    out[ch] += src[ch];
            }
            continue;
        }
        for (int grp = 0; grp < num_groups; ++grp) {
            const int c0 = grp * k;
            const int c1 = std::min(width, c0 + k);
            const int k_eff = c1 - c0;
            const int zbits = bm.countBitsInWindow(r, c0, c1);
            if (zbits == 0)
                continue;
            const bool subtract =
                k_eff >= 2 && (1 + (k_eff - zbits)) < zbits;
            if (subtract) {
                const float *pre = presum.row(grp);
                for (size_t ch = 0; ch < channels; ++ch)
                    out[ch] += pre[ch];
                for (int c = c0; c < c1; ++c) {
                    if (bm.test(r, c)) continue;
                    const float *src = y.row(col_node[c]);
                    for (size_t ch = 0; ch < channels; ++ch)
                        out[ch] -= src[ch];
                }
            } else {
                for (int c = c0; c < c1; ++c) {
                    if (!bm.test(r, c)) continue;
                    const float *src = y.row(col_node[c]);
                    for (size_t ch = 0; ch < channels; ++ch)
                        out[ch] += src[ch];
                }
            }
        }
    }
}

/** The seed's aggregateViaIslands at one thread: islands in order
 *  into one hub partial buffer, then hub rows, inter-hub edges and
 *  hub self loops. Per-island op stats go to island_stats. */
DenseMatrix
oracleAggregate(const CsrGraph &g, const IslandizationResult &isl,
                const DenseMatrix &y, const RedundancyConfig &cfg,
                bool include_self_loops,
                std::vector<AggOpStats> &island_stats)
{
    const size_t channels = y.cols();
    DenseMatrix z(y.rows(), channels);
    std::vector<uint32_t> hub_index(g.numNodes(), ~uint32_t{0});
    std::vector<NodeId> hub_ids;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        if (isl.role[v] == NodeRole::Hub) {
            hub_index[v] = static_cast<uint32_t>(hub_ids.size());
            hub_ids.push_back(v);
        }
    }
    DenseMatrix hub_partial(hub_ids.empty() ? 1 : hub_ids.size(),
                            channels);
    std::vector<int> local(g.numNodes(), -1);
    island_stats.clear();
    for (const Island &island : isl.islands) {
        OracleBitmap bm = oracleBitmap(g, island, include_self_loops,
                                       local);
        island_stats.push_back(oracleCountIslandAggOps(bm, cfg));
        oracleEvaluateIsland(bm, island, y, z, hub_partial, hub_index,
                             island_stats.back().chosenK);
    }
    for (size_t h = 0; h < hub_ids.size(); ++h) {
        float *dst = z.row(hub_ids[h]);
        const float *src = hub_partial.row(h);
        for (size_t ch = 0; ch < channels; ++ch)
            dst[ch] += src[ch];
    }
    for (const auto &[h1, h2] : isl.interHubEdges) {
        for (size_t ch = 0; ch < channels; ++ch) {
            z.row(h1)[ch] += y.row(h2)[ch];
            z.row(h2)[ch] += y.row(h1)[ch];
        }
    }
    if (include_self_loops)
        for (NodeId v : hub_ids)
            for (size_t ch = 0; ch < channels; ++ch)
                z.row(v)[ch] += y.row(v)[ch];
    return z;
}

void
expectSameOps(const AggOpStats &a, const AggOpStats &b,
              const std::string &ctx)
{
    EXPECT_EQ(a.baselineOps, b.baselineOps) << ctx;
    EXPECT_EQ(a.preaggOps, b.preaggOps) << ctx;
    EXPECT_EQ(a.windowOps, b.windowOps) << ctx;
    EXPECT_EQ(a.windowsSkipped, b.windowsSkipped) << ctx;
    EXPECT_EQ(a.windowsSubtractMode, b.windowsSubtractMode) << ctx;
}

struct PlanConfig
{
    const char *name;
    RedundancyConfig cfg;
    bool includeSelfLoops = true;
};

std::vector<PlanConfig>
planConfigs()
{
    std::vector<PlanConfig> out;
    out.push_back({"adaptive", {}});
    // k = 3 windows straddle the 64-column word boundaries.
    for (int k : {0, 2, 3, 4, 8, 16}) {
        RedundancyConfig cfg;
        cfg.adaptiveK = false;
        cfg.k = k;
        out.push_back({"fixed", cfg});
    }
    RedundancyConfig lazy;
    lazy.lazyPreagg = true;
    out.push_back({"lazy", lazy});
    out.push_back({"no-self-loops", {}, false});
    return out;
}

TEST_F(ParityTest, IslandPlanMatchesSequentialConsumerAcrossThreads)
{
    struct PlanCase
    {
        std::string name;
        CsrGraph graph;
        LocatorConfig locator;
    };
    std::vector<PlanCase> cases;
    for (FamilyCase &fc : graphFamilies())
        cases.push_back({fc.name, std::move(fc.graph), {}});
    cases.push_back({"pubmed", buildDataset(Dataset::Pubmed).graph, {}});
    cases.push_back({"cora", buildDataset(Dataset::Cora).graph, {}});
    // cmax 256: islands up to 168 columns wide, three words per row.
    LocatorConfig wide;
    wide.maxIslandSize = 256;
    cases.push_back({"cora-cmax256", buildDataset(Dataset::Cora).graph,
                     wide});
    for (const PlanCase &fc : cases) {
        const IslandizationResult isl = islandize(fc.graph, fc.locator);
        for (const PlanConfig &pc : planConfigs()) {
            const std::string cfg_ctx = fc.name + " " + pc.name +
                " k=" + std::to_string(pc.cfg.k);
            for (size_t channels : {1, 3, 16, 64}) {
                Rng rng(channels * 7 + 1);
                DenseMatrix y(fc.graph.numNodes(), channels);
                y.fillRandom(rng);
                // Negative zeros pin the sign of zero in every sum.
                for (size_t i = 0; i < y.data().size(); i += 13)
                    y.data()[i] = -0.0f;
                std::vector<AggOpStats> oracle_stats;
                const DenseMatrix expected =
                    oracleAggregate(fc.graph, isl, y, pc.cfg,
                                    pc.includeSelfLoops, oracle_stats);
                for (int threads : kThreadCounts) {
                    setGlobalThreads(threads);
                    const std::string ctx = cfg_ctx + " C=" +
                        std::to_string(channels) + " @ " +
                        std::to_string(threads) + " threads";
                    const IslandPlan plan = compileIslandPlan(
                        fc.graph, isl, pc.cfg, pc.includeSelfLoops);
                    AggOpStats stats;
                    EXPECT_TRUE(sameBytes(
                        replayIslandPlan(plan, y, &stats), expected))
                        << ctx;
                    AggOpStats oracle_total;
                    ASSERT_EQ(plan.islandStats.size(),
                              oracle_stats.size()) << ctx;
                    for (size_t i = 0; i < oracle_stats.size(); ++i) {
                        EXPECT_EQ(plan.islandStats[i].chosenK,
                                  oracle_stats[i].chosenK) << ctx;
                        oracle_total += oracle_stats[i];
                    }
                    expectSameOps(stats, oracle_total, ctx);
                    if (channels == 3) {
                        EXPECT_TRUE(sameBytes(
                            aggregateViaIslands(fc.graph, isl, y,
                                                pc.cfg, nullptr,
                                                pc.includeSelfLoops),
                            expected)) << ctx;
                        expectSameOps(
                            countPruning(fc.graph, isl, pc.cfg,
                                         pc.includeSelfLoops)
                                .islandOps,
                            oracle_total, ctx);
                    }
                }
            }
        }
    }
}

TEST_F(ParityTest, IslandPlanRejectsCoverageViolationAtCompile)
{
    const CsrGraph g = graphFamilies().front().graph;
    IslandizationResult isl = islandize(g);
    // Drop a hub from the first island that borders one: its island
    // nodes now have a neighbor outside the island and its hubs.
    auto it = std::find_if(isl.islands.begin(), isl.islands.end(),
                           [](const Island &island) {
                               return !island.hubs.empty();
                           });
    ASSERT_NE(it, isl.islands.end());
    it->hubs.pop_back();
    for (int threads : kThreadCounts) {
        setGlobalThreads(threads);
        try {
            compileIslandPlan(g, isl, {});
            ADD_FAILURE() << "no throw @ " << threads << " threads";
        } catch (const std::logic_error &e) {
            EXPECT_NE(std::string(e.what()).find("coverage"),
                      std::string::npos) << e.what();
        }
    }
    // The thread-local column map was rolled back: a valid
    // islandization still compiles and replays correctly.
    const IslandizationResult good = islandize(g);
    Rng rng(5);
    DenseMatrix y(g.numNodes(), 4);
    y.fillRandom(rng);
    std::vector<AggOpStats> oracle_stats;
    EXPECT_TRUE(sameBytes(
        aggregateViaIslands(g, good, y, {}),
        oracleAggregate(g, good, y, {}, true, oracle_stats)));
}

TEST_F(ParityTest, IslandPlanRejectsNonHubInHubListAtCompile)
{
    const CsrGraph g = graphFamilies().front().graph;
    IslandizationResult isl = islandize(g);
    ASSERT_GE(isl.islands.size(), 2u);
    // Name another island's member as a hub of the last island.
    isl.islands.back().hubs.push_back(isl.islands.front().nodes[0]);
    for (int threads : kThreadCounts) {
        setGlobalThreads(threads);
        try {
            compileIslandPlan(g, isl, {});
            ADD_FAILURE() << "no throw @ " << threads << " threads";
        } catch (const std::logic_error &e) {
            EXPECT_NE(std::string(e.what()).find("non-hub"),
                      std::string::npos) << e.what();
        }
    }
}

} // namespace
} // namespace igcn
