/**
 * @file
 * Differential fuzz harness for the incremental islandization path.
 *
 * Seeded randomized add/remove edge streams over the four graph
 * families, replayed through `withEditedEdges` +
 * `updateIslandization` against three independent oracles:
 *
 *  1. **Structural validity** after every batch: every node
 *     classified, island sizes within [1, cmax], and *exact* edge
 *     coverage — every edge is intra-island, listed island-hub, or a
 *     recorded inter-hub edge; the inter-hub map and every hub list
 *     contain no stale entries (sorted, unique, hub-roled, and
 *     backed by live edges). This is the full fresh-run
 *     postcondition set, checked directly rather than through
 *     derived metrics, so a dissolve-on-remove bug (stale hub list,
 *     leaked inter-hub entry, unclassified dirty node) fails loudly.
 *  2. **Thread invariance**: the entire replay — partition (island
 *     membership in BFS discovery order, roles, islandOf, hub
 *     rounds, inter-hub map) and the per-batch IncrementalStats
 *     sequence — is bit-identical at IGCN_THREADS 1/4/8, and
 *     from-scratch `islandize` on the evolved graph is itself
 *     bit-identical across the same thread counts (partition, stats,
 *     and task trace): the locator's determinism contract extends to
 *     the dynamic-graph path.
 *  3. **From-scratch equivalence**: the evolved graph equals a
 *     ground-truth edge-list rebuild, and the incremental partition
 *     matches from-scratch `islandize` on that graph in pruning
 *     quality (the partitions may legitimately differ in discovery
 *     order; the structure the consumer exploits may not degrade).
 *
 * The touched-row epoch build (withEditedEdges, patchDegreeScaling
 * and the UpdateApplier that chains them) is checked byte for byte
 * against a from-scratch build of every epoch on the same streams,
 * and the serving pull over each epoch's graph and scaling
 * (pullNormalizedRows) against the stored A_hat it replaces.
 *
 * Seed count per family comes from IGCN_FUZZ_SEEDS (default 12; CI
 * sets 50 → 200 seeds). The whole suite also runs under ASan+UBSan
 * in the sanitizer CI job.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "core/incremental.hpp"
#include "core/redundancy.hpp"
#include "gcn/layer.hpp"
#include "gcn/reference.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/agg_cache.hpp"
#include "serve/update.hpp"
#include "spmm/spmm.hpp"
#include "tests/island_fingerprint.hpp"

namespace igcn {
namespace {

int
fuzzSeedsPerFamily()
{
    if (const char *env = std::getenv("IGCN_FUZZ_SEEDS")) {
        const int v = std::atoi(env);
        if (v > 0)
            return v;
    }
    return 12;
}

struct Family
{
    const char *name;
    CsrGraph (*make)(uint64_t seed);
};

const Family kFamilies[] = {
    {"hub-island",
     [](uint64_t seed) {
         HubIslandParams hp;
         hp.numNodes = 420;
         hp.seed = seed;
         return hubAndIslandGraph(hp).graph;
     }},
    {"erdos-renyi",
     [](uint64_t seed) { return erdosRenyi(360, 5.0, seed); }},
    {"rmat",
     [](uint64_t seed) {
         return rmat(256, 1400, 0.57, 0.19, 0.19, seed);
     }},
    {"barabasi-albert",
     [](uint64_t seed) { return barabasiAlbert(300, 3, seed); }},
};

Edge
norm(NodeId u, NodeId v)
{
    return {std::min(u, v), std::max(u, v)};
}

/** One coalesced update span: additions and removals, disjoint. */
struct Batch
{
    std::vector<Edge> adds;
    std::vector<Edge> removes;
};

/**
 * Seeded add/remove stream over g0. A ground-truth edge *set* is
 * maintained alongside (the differential model): removals sample
 * uniformly from it, additions sample absent pairs, and within one
 * batch the two lists stay disjoint so the spans satisfy
 * updateIslandization's precondition directly.
 */
std::vector<Batch>
makeStream(const CsrGraph &g0, uint64_t seed, int num_batches,
           int events_per_batch, std::vector<Edge> *final_edges)
{
    Rng rng(seed);
    std::vector<Edge> present;
    for (const auto &[u, v] : g0.toEdges())
        if (u < v)
            present.push_back({u, v});
    std::set<Edge> member(present.begin(), present.end());

    std::vector<Batch> stream;
    for (int b = 0; b < num_batches; ++b) {
        Batch batch;
        std::set<Edge> touched;
        for (int e = 0; e < events_per_batch; ++e) {
            const bool remove =
                !present.empty() && rng.nextBool(0.5);
            if (remove) {
                const size_t i = rng.nextBounded(present.size());
                const Edge edge = present[i];
                if (!touched.insert(edge).second)
                    continue; // already mutated in this span
                batch.removes.push_back(edge);
                member.erase(edge);
                present[i] = present.back();
                present.pop_back();
            } else {
                const auto u = static_cast<NodeId>(
                    rng.nextBounded(g0.numNodes()));
                const auto v = static_cast<NodeId>(
                    rng.nextBounded(g0.numNodes()));
                if (u == v || member.count(norm(u, v)) ||
                    !touched.insert(norm(u, v)).second)
                    continue;
                batch.adds.push_back(norm(u, v));
                member.insert(norm(u, v));
                present.push_back(norm(u, v));
            }
        }
        stream.push_back(std::move(batch));
    }
    if (final_edges)
        final_edges->assign(member.begin(), member.end());
    return stream;
}

/**
 * The full fresh-run postcondition set, checked structurally (see
 * file comment). Returns via gtest expectations; `ctx` names the
 * failing seed/family/batch.
 */
void
verifyIslandization(const CsrGraph &g, const IslandizationResult &isl,
                    const LocatorConfig &cfg, const std::string &ctx)
{
    const NodeId n = g.numNodes();
    ASSERT_EQ(isl.role.size(), n) << ctx;
    ASSERT_EQ(isl.islandOf.size(), n) << ctx;

    // Node classification and islandOf consistency.
    std::vector<uint32_t> seen_in(n, IslandizationResult::kNoIsland);
    for (uint32_t i = 0; i < isl.islands.size(); ++i) {
        const Island &island = isl.islands[i];
        EXPECT_GE(island.nodes.size(), 1u) << ctx;
        EXPECT_LE(island.nodes.size(), cfg.maxIslandSize) << ctx;
        for (NodeId v : island.nodes) {
            EXPECT_EQ(isl.role[v], NodeRole::IslandNode) << ctx;
            EXPECT_EQ(isl.islandOf[v], i) << ctx;
            EXPECT_EQ(seen_in[v], IslandizationResult::kNoIsland)
                << ctx << ": node " << v << " in two islands";
            seen_in[v] = i;
        }
        // Hub lists: sorted, unique, hub-roled, backed by an edge.
        EXPECT_TRUE(std::is_sorted(island.hubs.begin(),
                                   island.hubs.end())) << ctx;
        EXPECT_EQ(std::adjacent_find(island.hubs.begin(),
                                     island.hubs.end()),
                  island.hubs.end()) << ctx;
        for (NodeId h : island.hubs) {
            EXPECT_EQ(isl.role[h], NodeRole::Hub)
                << ctx << ": island " << i << " lists non-hub " << h;
            bool adjacent = false;
            for (NodeId v : island.nodes)
                if (g.hasEdge(v, h)) {
                    adjacent = true;
                    break;
                }
            EXPECT_TRUE(adjacent)
                << ctx << ": island " << i << " lists stale hub "
                << h;
        }
    }
    for (NodeId v = 0; v < n; ++v) {
        ASSERT_NE(isl.role[v], NodeRole::Unclassified)
            << ctx << ": node " << v;
        if (isl.role[v] == NodeRole::IslandNode)
            EXPECT_EQ(seen_in[v], isl.islandOf[v]) << ctx;
        else
            EXPECT_EQ(isl.islandOf[v],
                      IslandizationResult::kNoIsland)
                << ctx << ": hub " << v;
    }

    // Inter-hub map: sorted unique normalized pairs of live hub-hub
    // edges (no stale entries).
    EXPECT_TRUE(std::is_sorted(isl.interHubEdges.begin(),
                               isl.interHubEdges.end())) << ctx;
    std::set<Edge> inter_hub(isl.interHubEdges.begin(),
                             isl.interHubEdges.end());
    EXPECT_EQ(inter_hub.size(), isl.interHubEdges.size()) << ctx;
    for (const auto &[a, b] : isl.interHubEdges) {
        EXPECT_LE(a, b) << ctx;
        EXPECT_TRUE(g.hasEdge(a, b))
            << ctx << ": stale inter-hub edge (" << a << ", " << b
            << ")";
        EXPECT_EQ(isl.role[a], NodeRole::Hub) << ctx;
        EXPECT_EQ(isl.role[b], NodeRole::Hub) << ctx;
    }

    // Exact edge coverage.
    for (NodeId u = 0; u < n; ++u) {
        for (NodeId v : g.neighbors(u)) {
            if (v < u)
                continue; // undirected: check each edge once
            const bool u_hub = isl.role[u] == NodeRole::Hub;
            const bool v_hub = isl.role[v] == NodeRole::Hub;
            if (u_hub && v_hub) {
                EXPECT_TRUE(inter_hub.count(norm(u, v)))
                    << ctx << ": uncovered hub-hub edge (" << u
                    << ", " << v << ")";
            } else if (!u_hub && !v_hub) {
                EXPECT_EQ(isl.islandOf[u], isl.islandOf[v])
                    << ctx << ": cross-island edge (" << u << ", "
                    << v << ")";
            } else {
                const NodeId inode = u_hub ? v : u;
                const NodeId hub = u_hub ? u : v;
                const auto &hubs =
                    isl.islands[isl.islandOf[inode]].hubs;
                EXPECT_TRUE(std::binary_search(hubs.begin(),
                                               hubs.end(), hub))
                    << ctx << ": island " << isl.islandOf[inode]
                    << " missing hub " << hub << " for edge (" << u
                    << ", " << v << ")";
            }
        }
    }

    // The consumer's accounting identity on top of the structure.
    EXPECT_EQ(countPruning(g, isl, {}).baselineAggOps(),
              g.numEdges() + g.numNodes()) << ctx;
}

/** Partition + BFS-order equality between two islandizations. */
void
expectIdenticalPartition(const IslandizationResult &a,
                         const IslandizationResult &b,
                         const std::string &ctx)
{
    ASSERT_EQ(a.islands.size(), b.islands.size()) << ctx;
    for (size_t i = 0; i < a.islands.size(); ++i) {
        EXPECT_TRUE(std::ranges::equal(a.islands[i].nodes,
                                       b.islands[i].nodes))
            << ctx << ": island " << i << " BFS order";
        EXPECT_TRUE(std::ranges::equal(a.islands[i].hubs,
                                       b.islands[i].hubs))
            << ctx << ": island " << i << " hub list";
        EXPECT_EQ(a.islands[i].round, b.islands[i].round)
            << ctx << ": island " << i << " round";
    }
    EXPECT_EQ(a.role, b.role) << ctx;
    EXPECT_EQ(a.islandOf, b.islandOf) << ctx;
    EXPECT_EQ(a.hubRound, b.hubRound) << ctx;
    EXPECT_EQ(a.interHubEdges, b.interHubEdges) << ctx;
    EXPECT_EQ(a.stats.islandsFound, b.stats.islandsFound) << ctx;
}

/** Locator stats + trace equality (from-scratch runs only). */
void
expectIdenticalStatsAndTrace(const IslandizationResult &a,
                             const IslandizationResult &b,
                             const std::string &ctx)
{
    EXPECT_EQ(a.stats.tasksGenerated, b.stats.tasksGenerated) << ctx;
    EXPECT_EQ(a.stats.tasksDroppedCollision,
              b.stats.tasksDroppedCollision) << ctx;
    EXPECT_EQ(a.stats.tasksDroppedOversize,
              b.stats.tasksDroppedOversize) << ctx;
    EXPECT_EQ(a.stats.edgesScanned, b.stats.edgesScanned) << ctx;
    EXPECT_EQ(a.stats.edgesScannedWasted, b.stats.edgesScannedWasted)
        << ctx;
    EXPECT_EQ(a.thresholds, b.thresholds) << ctx;
    ASSERT_EQ(a.taskTrace.size(), b.taskTrace.size()) << ctx;
    for (size_t i = 0; i < a.taskTrace.size(); ++i) {
        EXPECT_EQ(a.taskTrace[i].round, b.taskTrace[i].round) << ctx;
        EXPECT_EQ(a.taskTrace[i].outcome, b.taskTrace[i].outcome)
            << ctx;
        EXPECT_EQ(a.taskTrace[i].edgesScanned,
                  b.taskTrace[i].edgesScanned) << ctx;
    }
}

/** One full incremental replay of a stream at a fixed thread count. */
struct ReplayResult
{
    CsrGraph graph;
    IslandizationResult islands;
    std::vector<IncrementalStats> statsPerBatch;
};

ReplayResult
replayStream(const CsrGraph &g0, const std::vector<Batch> &stream,
             const LocatorConfig &cfg, int threads, bool verify,
             const std::string &ctx)
{
    setGlobalThreads(threads);
    ReplayResult r;
    r.graph = g0;
    r.islands = islandize(g0, cfg);
    for (size_t b = 0; b < stream.size(); ++b) {
        const Batch &batch = stream[b];
        // One merge sweep per batch: makeStream keeps adds/removes
        // disjoint, exactly withEditedEdges' contract. The two-pass
        // composition this replaced is differentially locked in by
        // OnePassEditedEpochsMatchTwoPassComposition below.
        CsrGraph next =
            r.graph.withEditedEdges(batch.adds, batch.removes);
        IncrementalStats stats;
        r.islands = updateIslandization(next, r.islands, batch.adds,
                                        batch.removes, cfg, &stats);
        r.graph = std::move(next);
        r.statsPerBatch.push_back(stats);
        if (verify)
            verifyIslandization(r.graph, r.islands, cfg,
                                ctx + " batch " + std::to_string(b));
    }
    return r;
}

TEST(FuzzIncremental, AddRemoveStreamsMatchFromScratchAtAllThreadCounts)
{
    const int seeds = fuzzSeedsPerFamily();
    LocatorConfig cfg;
    cfg.recordTrace = true; // locked into the cross-thread equality

    for (const Family &family : kFamilies) {
        for (int seed = 0; seed < seeds; ++seed) {
            const std::string ctx = std::string(family.name) +
                " seed " + std::to_string(seed);
            const CsrGraph g0 =
                family.make(1000 + static_cast<uint64_t>(seed));
            std::vector<Edge> model_edges;
            const std::vector<Batch> stream =
                makeStream(g0, 77 * seed + 5, /*num_batches=*/5,
                           /*events_per_batch=*/14, &model_edges);

            // Oracle 1: structural validity after every batch
            // (verified once, on the 1-thread replay).
            ReplayResult base = replayStream(g0, stream, cfg, 1,
                                             /*verify=*/true, ctx);

            // Oracle 3a: the evolved graph equals the ground-truth
            // edge-list rebuild (differential for the merge kernels).
            EXPECT_EQ(base.graph,
                      CsrGraph::fromEdges(g0.numNodes(), model_edges,
                                          /*symmetrize=*/true))
                << ctx;

            // Oracle 2: the whole replay is thread-invariant, and so
            // is from-scratch islandize on the evolved graph.
            setGlobalThreads(1);
            const IslandizationResult fresh1 =
                islandize(base.graph, cfg);
            for (int threads : {4, 8}) {
                const std::string tctx =
                    ctx + " @ " + std::to_string(threads) + "T";
                ReplayResult other =
                    replayStream(g0, stream, cfg, threads,
                                 /*verify=*/false, tctx);
                EXPECT_EQ(other.graph, base.graph) << tctx;
                expectIdenticalPartition(other.islands, base.islands,
                                         tctx + " (incremental)");
                EXPECT_EQ(other.statsPerBatch, base.statsPerBatch)
                    << tctx << " (incremental stats)";

                setGlobalThreads(threads);
                const IslandizationResult fresh =
                    islandize(base.graph, cfg);
                expectIdenticalPartition(fresh, fresh1,
                                         tctx + " (from-scratch)");
                expectIdenticalStatsAndTrace(fresh, fresh1, tctx);
            }

            // Oracle 3b: from-scratch equivalence of the partitions —
            // both valid (fresh verified by the same oracle), with
            // comparable pruning opportunity for the consumer.
            verifyIslandization(base.graph, fresh1, cfg,
                                ctx + " (from-scratch)");
            const double inc_rate =
                countPruning(base.graph, base.islands, {})
                    .aggPruningRate();
            const double fresh_rate =
                countPruning(base.graph, fresh1, {}).aggPruningRate();
            EXPECT_GT(inc_rate, fresh_rate - 0.12) << ctx;
        }
    }
    setGlobalThreads(0);
}

TEST(FuzzIncremental, UpdateIslandizationMatchesGoldenFingerprint)
{
    // Fingerprints of everything an update epoch produces — every
    // field of the updated result (island order, members, hub lists,
    // roles, islandOf, hub rounds, inter-hub map, the carried-over
    // locator record), the IncrementalStats, the IslandProvenance and
    // the endpoint dirty sweep — chained over fixed mixed add/remove
    // streams on three families, at cmax 4 (many dissolves and hub
    // demotions) and 64. Recorded on the std::vector<Island> result
    // that the flat island table replaced: any change to what the
    // repair computes, or to its scan order, fails here.
    struct Golden
    {
        size_t family; // index into kFamilies
        uint64_t fp;
    };
    const Golden kGolden[] = {
        {0, 0x0a9eb5511d0cca06ull},
        {1, 0x4ad597d2023d670dull},
        {3, 0x8f913caf973a51edull},
    };
    for (const Golden &gold : kGolden) {
        const Family &family = kFamilies[gold.family];
        Fnv1a f;
        IncrementalStats total; // non-vacuity: every repair path ran
        for (const NodeId cmax : {NodeId{4}, NodeId{64}}) {
            LocatorConfig cfg;
            cfg.maxIslandSize = cmax;
            cfg.recordTrace = true;
            CsrGraph g = family.make(6000 + cmax);
            IslandizationResult isl = islandize(g, cfg);
            const auto step = [&](std::span<const Edge> adds,
                                  std::span<const Edge> removes) {
                CsrGraph next = g.withEditedEdges(adds, removes);
                IncrementalStats st;
                IslandProvenance prov;
                isl = updateIslandization(next, isl, adds, removes, cfg,
                                          &st, &prov);
                g = std::move(next);
                total.islandsDissolved += st.islandsDissolved;
                total.hubsDemoted += st.hubsDemoted;
                total.edgesInterHub += st.edgesInterHub;
                total.edgesRemovedInterHub += st.edgesRemovedInterHub;
                addResult(f, isl);
                for (uint64_t v :
                     {st.edgesAbsorbed, st.edgesInterHub,
                      st.islandsDissolved, st.hubsDemoted,
                      st.edgesRemovedInterHub, st.nodesReclassified,
                      st.edgesScanned})
                    f.add(v);
                f.addAll(prov.parentOf);
                f.addAll(dirtyIslandEndpointSweep(g, isl, adds, removes));
            };
            // Wide batches, then a long run of one- and two-edge ones.
            for (const auto &[batches, events] :
                 {std::pair{6, 14}, std::pair{24, 2}})
                for (const Batch &batch :
                     makeStream(g, 97 * cmax + events, batches, events,
                                nullptr))
                    step(batch.adds, batch.removes);
            // Drain the three lowest-id hubs one edge at a time, so
            // each falls below the demotion floor.
            std::vector<NodeId> hubs;
            for (NodeId v = 0; v < g.numNodes() && hubs.size() < 3; ++v)
                if (isl.role[v] == NodeRole::Hub)
                    hubs.push_back(v);
            for (const NodeId h : hubs)
                while (g.degree(h) > 0) {
                    const Edge e = norm(h, g.neighbors(h).front());
                    step({}, {&e, 1});
                }
        }
        char hex[19];
        std::snprintf(hex, sizeof hex, "%#018llx",
                      static_cast<unsigned long long>(f.value()));
        EXPECT_EQ(f.value(), gold.fp)
            << family.name << ": got " << hex;
        EXPECT_GT(total.islandsDissolved, 0u) << family.name;
        EXPECT_GT(total.hubsDemoted, 0u) << family.name;
        EXPECT_GT(total.edgesInterHub, 0u) << family.name;
        EXPECT_GT(total.edgesRemovedInterHub, 0u) << family.name;
    }
}

TEST(FuzzIncremental, CacheSurvivorsMatchColdRecomputeAtAllThreadCounts)
{
    // The aggregation cache's invalidation-sufficiency oracle
    // (serve/agg_cache.hpp): over every seeded add/remove stream,
    // feed an AggCache the per-island layer-1 rows of each epoch and
    // advance it through the real epoch delta — structural
    // provenance from updateIslandization intersected with
    // dirtyIslandEndpointSweep. Every entry that *survives* an
    // advance was filled from the previous epoch's graph; it must be
    // bit-identical to a cold recompute on the new graph, at
    // IGCN_THREADS 1, 4 and 8. A provenance or dirty-sweep bug that
    // lets a changed island carry its old bytes forward fails the
    // memcmp; the cross-thread stats comparison pins the hit/miss
    // sequence as thread-invariant.
    const int seeds = fuzzSeedsPerFamily();
    LocatorConfig cfg;
    const int feat = 8, hidden = 8;

    const auto layer1 = [&](const CsrGraph &g, const DenseMatrix &x,
                            const DenseMatrix &w0) {
        return spmmPullRowWise(normalizedAdjacency(g), gemm(x, w0));
    };
    const auto islandRows = [&](const Island &island,
                                const DenseMatrix &h1) {
        std::vector<float> rows;
        rows.reserve(island.nodes.size() * hidden);
        for (NodeId v : island.nodes)
            rows.insert(rows.end(), h1.row(v), h1.row(v) + hidden);
        return rows;
    };

    for (const Family &family : kFamilies) {
        for (int seed = 0; seed < seeds; ++seed) {
            const std::string ctx = std::string(family.name) +
                " seed " + std::to_string(seed) + " (agg-cache)";
            const CsrGraph g0 =
                family.make(3000 + static_cast<uint64_t>(seed));
            const std::vector<Batch> stream =
                makeStream(g0, 53 * seed + 11, /*num_batches=*/5,
                           /*events_per_batch=*/14, nullptr);
            Rng rng(91 * seed + 2);
            DenseMatrix x(g0.numNodes(), feat);
            x.fillRandom(rng, 1.0f);
            DenseMatrix w0(feat, hidden);
            w0.fillRandom(rng, 0.5f);

            std::vector<serve::AggCacheStats> perThread;
            for (int threads : {1, 4, 8}) {
                setGlobalThreads(threads);
                const std::string tctx =
                    ctx + " @ " + std::to_string(threads) + "T";
                CsrGraph g = g0;
                IslandizationResult isl = islandize(g, cfg);
                serve::AggCache cache(
                    {.enabled = true, .maxBytes = 1ull << 30});
                uint64_t epoch = 0;
                cache.advance(epoch, false, 0, {});
                DenseMatrix h1 = layer1(g, x, w0);
                for (uint32_t i = 0; i < isl.islands.size(); ++i)
                    cache.insert(epoch, i,
                                 islandRows(isl.islands[i], h1));

                uint64_t survivors = 0;
                for (size_t b = 0; b < stream.size(); ++b) {
                    const Batch &batch = stream[b];
                    CsrGraph next = g.withEditedEdges(batch.adds,
                                                      batch.removes);
                    IslandProvenance prov;
                    isl = updateIslandization(next, isl, batch.adds,
                                              batch.removes, cfg,
                                              nullptr, &prov);
                    g = std::move(next);
                    for (uint32_t d : dirtyIslandEndpointSweep(
                             g, isl, batch.adds, batch.removes))
                        prov.parentOf[d] = IslandProvenance::kNone;
                    const uint64_t parent = epoch;
                    epoch++;
                    cache.advance(epoch, true, parent,
                                  prov.parentOf);

                    h1 = layer1(g, x, w0);
                    std::vector<float> buf;
                    for (uint32_t i = 0; i < isl.islands.size();
                         ++i) {
                        const size_t want =
                            isl.islands[i].nodes.size() * hidden;
                        buf.resize(want);
                        if (cache.lookup(epoch, i, want,
                                         buf.data())) {
                            survivors++;
                            const std::vector<float> cold =
                                islandRows(isl.islands[i], h1);
                            ASSERT_EQ(0, std::memcmp(
                                             buf.data(), cold.data(),
                                             want * sizeof(float)))
                                << tctx << " batch " << b
                                << " island " << i
                                << ": stale bytes survived "
                                   "invalidation";
                        }
                        // Refill so the next epoch's survivors are
                        // again previous-epoch bytes.
                        cache.insert(epoch, i,
                                     islandRows(isl.islands[i], h1));
                    }
                }
                // Non-vacuity: localized edits must leave most
                // islands' aggregates carried across epochs.
                EXPECT_GT(survivors, 0u) << tctx;
                perThread.push_back(cache.stats());
            }
            setGlobalThreads(0);
            for (size_t i = 1; i < perThread.size(); ++i) {
                EXPECT_EQ(perThread[0].hits, perThread[i].hits)
                    << ctx;
                EXPECT_EQ(perThread[0].misses, perThread[i].misses)
                    << ctx;
                EXPECT_EQ(perThread[0].invalidated,
                          perThread[i].invalidated) << ctx;
            }
        }
    }
}

TEST(FuzzIncremental, OnePassEditedEpochsMatchTwoPassComposition)
{
    // Differential lock for the one-pass epoch build: over the fuzz
    // corpus, withEditedEdges(adds, removes) must produce the exact
    // graph of the old two-pass withAddedEdges-then-withRemovedEdges
    // composition after every batch, and feeding either graph chain
    // through updateIslandization must give bit-identical partitions
    // and incremental stats.
    const int seeds = fuzzSeedsPerFamily();
    LocatorConfig cfg;
    for (const Family &family : kFamilies) {
        for (int seed = 0; seed < seeds; ++seed) {
            const std::string ctx = std::string(family.name) +
                " seed " + std::to_string(seed) + " (one-pass)";
            const CsrGraph g0 =
                family.make(2000 + static_cast<uint64_t>(seed));
            const std::vector<Batch> stream =
                makeStream(g0, 31 * seed + 7, /*num_batches=*/5,
                           /*events_per_batch=*/14, nullptr);

            CsrGraph one = g0, two = g0;
            IslandizationResult isl_one = islandize(g0, cfg);
            IslandizationResult isl_two = isl_one;
            for (size_t b = 0; b < stream.size(); ++b) {
                const std::string bctx =
                    ctx + " batch " + std::to_string(b);
                const Batch &batch = stream[b];
                one = one.withEditedEdges(batch.adds, batch.removes);
                two = two.withAddedEdges(batch.adds);
                if (!batch.removes.empty())
                    two = two.withRemovedEdges(batch.removes);
                ASSERT_EQ(one, two) << bctx;

                IncrementalStats st_one, st_two;
                isl_one = updateIslandization(one, isl_one,
                                              batch.adds,
                                              batch.removes, cfg,
                                              &st_one);
                isl_two = updateIslandization(two, isl_two,
                                              batch.adds,
                                              batch.removes, cfg,
                                              &st_two);
                expectIdenticalPartition(isl_one, isl_two, bctx);
                EXPECT_EQ(st_one, st_two) << bctx;
            }
        }
    }
}

TEST(FuzzIncremental, DeletionOnlyStreamDrainsToIsolatedGraph)
{
    // Adversarial tail case: delete *every* edge, a few at a time.
    // Hubs get starved below the demotion floor, islands dissolve and
    // re-form around shrinking cores, and the final state must be all
    // singleton islands with an empty inter-hub map.
    LocatorConfig cfg;
    CsrGraph g = hubAndIslandGraph({.numNodes = 120, .seed = 3}).graph;
    IslandizationResult isl = islandize(g, cfg);
    Rng rng(9);

    std::vector<Edge> present;
    for (const auto &[u, v] : g.toEdges())
        if (u < v)
            present.push_back({u, v});

    int batch_no = 0;
    while (!present.empty()) {
        std::vector<Edge> removes;
        const size_t k = std::min<size_t>(
            present.size(), 1 + rng.nextBounded(9));
        for (size_t i = 0; i < k; ++i) {
            const size_t j = rng.nextBounded(present.size());
            removes.push_back(present[j]);
            present[j] = present.back();
            present.pop_back();
        }
        g = g.withRemovedEdges(removes);
        isl = updateIslandization(g, isl, {}, removes, cfg);
        verifyIslandization(g, isl, cfg,
                            "drain batch " +
                                std::to_string(batch_no++));
    }
    EXPECT_EQ(g.numEdges(), 0u);
    EXPECT_TRUE(isl.interHubEdges.empty());
    EXPECT_EQ(isl.islands.size(), g.numNodes());
    EXPECT_EQ(isl.numHubs(), 0u);
}

/** Byte equality of two arrays, sizes first. */
template <typename T>
bool
sameBytes(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/** rows x width of mixed-sign values with -0.0f and +-inf mixed in. */
DenseMatrix
pullOperand(size_t rows, size_t width, uint64_t seed)
{
    const float inf = std::numeric_limits<float>::infinity();
    Rng rng(seed);
    DenseMatrix m(rows, width);
    for (float &x : m.data()) {
        const uint64_t k = rng.nextBounded(16);
        x = k == 0 ? -0.0f : k == 1 ? inf : k == 2 ? -inf
                                        : rng.nextFloat(1.0f);
    }
    return m;
}

/**
 * s is byte-equal to degreeScaling(g), and the serving pull over
 * (g, s) to spmmPullRowWise over the from-scratch A_hat of g.
 */
void
expectFullBuild(const CsrGraph &g, const std::vector<float> &s,
                const std::string &ctx)
{
    ASSERT_TRUE(sameBytes(s, degreeScaling(g))) << ctx << ": scale";
    const DenseMatrix b = pullOperand(g.numNodes(), 5, g.numEdges());
    const DenseMatrix want = spmmPullRowWise(normalizedAdjacency(g), b);
    std::vector<NodeId> rows(g.numNodes());
    std::iota(rows.begin(), rows.end(), NodeId{0});
    DenseMatrix got(rows.size(), b.cols());
    pullNormalizedRows(g, s, rows, b, {}, got);
    ASSERT_TRUE(sameBytes(got.data(), want.data())) << ctx << ": pull";
}

/** The graph and scaling of one epoch, as the update applier keeps them. */
struct EpochArrays
{
    CsrGraph graph;
    std::vector<float> scale;

    explicit EpochArrays(CsrGraph g)
        : graph(std::move(g)), scale(degreeScaling(graph))
    {}

    /**
     * Advance by one edit with the touched-row build (graph and
     * scaling each patched from this epoch's) and check the result
     * against a from-scratch build.
     */
    void
    edit(std::span<const Edge> adds, std::span<const Edge> removes,
         const std::string &ctx)
    {
        CsrGraph next = graph.withEditedEdges(adds, removes);
        std::set<Edge> arcs;
        for (const Edge &e : graph.toEdges())
            arcs.insert(e);
        std::vector<NodeId> endpoints;
        const auto apply = [&](std::span<const Edge> span, bool add) {
            for (const auto &[u, v] : span) {
                endpoints.push_back(u);
                endpoints.push_back(v);
                for (const Edge &arc : {Edge{u, v}, Edge{v, u}}) {
                    if (add)
                        arcs.insert(arc);
                    else
                        arcs.erase(arc);
                }
            }
        };
        apply(adds, true);
        apply(removes, false);
        ASSERT_EQ(next, CsrGraph::fromEdges(
                            graph.numNodes(),
                            std::vector<Edge>(arcs.begin(), arcs.end()),
                            /*symmetrize=*/false,
                            /*keep_self_loops=*/true))
            << ctx << ": graph";
        std::vector<float> next_scale = scale;
        patchDegreeScaling(next_scale, next, endpoints);
        expectFullBuild(next, next_scale, ctx);
        graph = std::move(next);
        scale = std::move(next_scale);
    }
};

/** g plus a stored self loop at every third node, 0 and N-1 included. */
CsrGraph
withSelfLoops(const CsrGraph &g)
{
    std::vector<Edge> edges = g.toEdges();
    for (NodeId v = 0; v < g.numNodes(); ++v)
        if (v % 3 == 0 || v + 1 == g.numNodes())
            edges.emplace_back(v, v);
    return CsrGraph::fromEdges(g.numNodes(), edges, /*symmetrize=*/false,
                               /*keep_self_loops=*/true);
}

TEST(FuzzIncremental, TouchedRowEpochsMatchFullRebuild)
{
    // Every epoch of every family's add/remove stream, patched from
    // the previous patched epoch (as the applier chains them), must
    // be byte-equal to a full rebuild — also on a copy of each graph
    // that stores self loops, whose rows the writer must place the
    // diagonal in without duplicating it.
    const int seeds = fuzzSeedsPerFamily();
    for (const Family &family : kFamilies) {
        for (int seed = 0; seed < seeds; ++seed) {
            const CsrGraph plain =
                family.make(4000 + static_cast<uint64_t>(seed));
            for (const bool loops : {false, true}) {
                const std::string ctx = std::string(family.name) +
                    " seed " + std::to_string(seed) +
                    (loops ? " (self loops)" : "") + " (touched rows)";
                const CsrGraph g0 = loops ? withSelfLoops(plain) : plain;
                const std::vector<Batch> stream =
                    makeStream(g0, 41 * seed + 3, /*num_batches=*/6,
                               /*events_per_batch=*/14, nullptr);
                EpochArrays epoch(g0);
                for (size_t b = 0; b < stream.size(); ++b)
                    ASSERT_NO_FATAL_FAILURE(
                        epoch.edit(stream[b].adds, stream[b].removes,
                                   ctx + " batch " + std::to_string(b)));
            }
        }
    }
}

TEST(FuzzIncremental, TouchedRowEpochsCoverBoundaryShapes)
{
    // The shapes a touched-row build gets wrong first: the first and
    // last rows (no untouched run before / after them), a hub
    // endpoint (a long neighbour list to recompute), spans whose
    // edits share an endpoint, a node drained to isolation (its row
    // shrinks to the self loop alone), and stored self loops added
    // and removed around it.
    const CsrGraph g0 = withSelfLoops(
        hubAndIslandGraph({.numNodes = 300, .seed = 17}).graph);
    const NodeId last = g0.numNodes() - 1;
    NodeId hub = 0;
    for (NodeId v = 0; v < g0.numNodes(); ++v)
        if (g0.degree(v) > g0.degree(hub))
            hub = v;
    EpochArrays epoch(g0);
    // The first node from `from` on that u is not adjacent to.
    const auto absent = [&](NodeId u, NodeId from) {
        NodeId v = from % g0.numNodes();
        while (v == u || epoch.graph.hasEdge(u, v))
            v = (v + 1) % g0.numNodes();
        return v;
    };
    const auto norm_edges = [&](NodeId u) {
        std::vector<Edge> out;
        for (NodeId v : epoch.graph.neighbors(u))
            if (v != u)
                out.push_back(norm(u, v));
        return out;
    };

    ASSERT_FALSE(epoch.graph.hasEdge(0, last));
    const std::vector<Edge> corner{{0, last}};
    ASSERT_NO_FATAL_FAILURE(epoch.edit(corner, {}, "rows 0 and N-1"));

    const NodeId a1 = absent(5, 12);
    const std::vector<Edge> shared_adds{{5, a1}, {absent(5, a1 + 1), 5}};
    std::vector<Edge> shared_rems = norm_edges(5);
    ASSERT_GE(shared_rems.size(), 2u);
    shared_rems.resize(2);
    ASSERT_NO_FATAL_FAILURE(
        epoch.edit(shared_adds, shared_rems, "shared endpoint"));

    const std::vector<Edge> hub_adds{{hub, absent(hub, hub + 1)},
                                     {hub, last}};
    const std::vector<Edge> hub_rems{norm_edges(hub).front()};
    ASSERT_NO_FATAL_FAILURE(epoch.edit(hub_adds, hub_rems, "hub endpoint"));

    // Drain node 0 (which stores a self loop) to isolation, then drop
    // the loop as well; node 1 the same way, without a loop.
    for (const NodeId v : {NodeId{0}, NodeId{1}}) {
        const std::string ctx = "isolate " + std::to_string(v);
        ASSERT_FALSE(norm_edges(v).empty()) << ctx;
        ASSERT_NO_FATAL_FAILURE(epoch.edit({}, norm_edges(v), ctx));
        EXPECT_EQ(epoch.graph.degree(v), epoch.graph.hasEdge(v, v) ? 1u : 0u)
            << ctx;
    }
    ASSERT_TRUE(epoch.graph.hasEdge(0, 0));
    const std::vector<Edge> loops{{0, 0}, {last, last}};
    ASSERT_NO_FATAL_FAILURE(epoch.edit({}, loops, "drop self loops"));
    EXPECT_EQ(epoch.graph.degree(0), 0u);

    // Re-attach the isolated nodes to each other and the last row.
    const std::vector<Edge> rejoin{{0, 1}, {1, last}, {0, hub}};
    ASSERT_NO_FATAL_FAILURE(epoch.edit(rejoin, {}, "rejoin"));
}

/** g with `extra` isolated nodes appended after its last node. */
CsrGraph
withIsolatedNodes(const CsrGraph &g, NodeId extra)
{
    return CsrGraph::fromEdges(g.numNodes() + extra, g.toEdges(),
                               /*symmetrize=*/false,
                               /*keep_self_loops=*/true);
}

TEST(FuzzIncremental, NormalizedRowPullMatchesStoredAdjacency)
{
    // The serving pull forms each A_hat entry from the graph and its
    // scaling; it must equal spmmPullRowWise over the stored A_hat
    // byte for byte, on every row of every fuzz family, plain, with
    // stored self loops and with isolated nodes (a row of the self
    // loop alone), at widths that cross each column-block kind, with
    // -0.0f and +-inf in B (so NaN sums are compared too), through a
    // column map into a permuted B and past a skip mask that must
    // leave a NaN-prefilled output row untouched.
    const int seeds = fuzzSeedsPerFamily();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const Family &family : kFamilies) {
        for (int seed = 0; seed < seeds; ++seed) {
            const CsrGraph plain =
                family.make(6000 + static_cast<uint64_t>(seed));
            const CsrGraph variants[] = {plain, withSelfLoops(plain),
                                         withIsolatedNodes(plain, 7)};
            for (size_t k = 0; k < std::size(variants); ++k) {
                const CsrGraph &g = variants[k];
                const NodeId n = g.numNodes();
                const std::string ctx = std::string(family.name) +
                    " seed " + std::to_string(seed) + " variant " +
                    std::to_string(k);
                const std::vector<float> s = degreeScaling(g);
                const CsrMatrix a_hat = normalizedAdjacency(g);
                Rng rng(7 * seed + k);
                // Every row once, shuffled, and every fourth skipped.
                std::vector<NodeId> rows(n);
                std::iota(rows.begin(), rows.end(), NodeId{0});
                std::vector<NodeId> perm = rows;
                for (size_t i = n - 1; i > 0; --i) {
                    std::swap(rows[i], rows[rng.nextBounded(i + 1)]);
                    std::swap(perm[i], perm[rng.nextBounded(i + 1)]);
                }
                std::vector<uint8_t> skip(n, 0);
                uint64_t entries = 0;
                for (size_t i = 0; i < n; ++i) {
                    skip[i] = i % 4 == 0;
                    if (!skip[i])
                        entries += a_hat.rowPtr[rows[i] + 1] -
                                   a_hat.rowPtr[rows[i]];
                }
                for (size_t width : {1, 3, 4, 16, 33}) {
                    const DenseMatrix b =
                        pullOperand(n, width, 31 * seed + width + k);
                    // B' row perm[v] = B row v.
                    DenseMatrix permuted(n, width);
                    for (NodeId v = 0; v < n; ++v)
                        std::copy_n(b.row(v), width,
                                    permuted.row(perm[v]));
                    const DenseMatrix full = spmmPullRowWise(a_hat, b);
                    const std::vector<float> nan_row(width, nan);
                    for (int threads : {1, 4}) {
                        setGlobalThreads(threads);
                        const std::string wctx = ctx + " width " +
                            std::to_string(width) + " threads " +
                            std::to_string(threads);
                        DenseMatrix plain_out(n, width, nan);
                        pullNormalizedRows(g, s, rows, b, {}, plain_out);
                        DenseMatrix masked(n, width, nan);
                        ASSERT_EQ(pullNormalizedRows(g, s, rows, permuted,
                                                     perm, masked, skip),
                                  entries)
                            << wctx;
                        for (size_t i = 0; i < n; ++i) {
                            const float *want = full.row(rows[i]);
                            ASSERT_EQ(std::memcmp(plain_out.row(i), want,
                                                  width * sizeof(float)),
                                      0)
                                << wctx << " row " << rows[i];
                            const float *masked_want =
                                skip[i] ? nan_row.data() : want;
                            ASSERT_EQ(std::memcmp(masked.row(i),
                                                  masked_want,
                                                  width * sizeof(float)),
                                      0)
                                << wctx << " masked row " << rows[i];
                        }
                    }
                }
            }
        }
    }
    setGlobalThreads(0);
}

TEST(FuzzIncremental, UpdateApplierPublishesFullRebuildEpochs)
{
    // The applier end to end: every epoch it publishes for a fuzz
    // stream (one request per batch) must hold the ground-truth graph
    // and a scaling byte-equal to a from-scratch build of it, and the
    // logits served from it — for the edit endpoints, whose rows
    // changed, and a few other nodes — must be byte-equal to
    // whole-graph reference inference on that graph. The
    // islandization is repaired incrementally and is checked by the
    // oracles above, not here.
    const int seeds = fuzzSeedsPerFamily();
    for (const Family &family : kFamilies) {
        for (int seed = 0; seed < seeds; ++seed) {
            const std::string ctx = std::string(family.name) +
                " seed " + std::to_string(seed) + " (applier)";
            const CsrGraph g0 =
                family.make(5000 + static_cast<uint64_t>(seed));
            const NodeId n = g0.numNodes();
            std::set<Edge> model;
            for (const auto &[u, v] : g0.toEdges())
                if (u < v)
                    model.insert({u, v});
            const std::vector<Batch> stream =
                makeStream(g0, 19 * seed + 1, /*num_batches=*/5,
                           /*events_per_batch=*/14, nullptr);
            auto hub = std::make_shared<serve::GraphStateHub>(
                serve::makeGraphState(g0, LocatorConfig{}));
            serve::UpdateApplier applier(hub);
            Rng rng(23 * seed + 1);
            const Features x = makeFeatures(n, 6, 1.0, rng);
            std::vector<DenseMatrix> weights{DenseMatrix(6, 4),
                                             DenseMatrix(4, 3)};
            for (DenseMatrix &w : weights)
                w.fillRandom(rng, 1.0f);
            const serve::InferenceEngine engine(hub, x, weights);
            for (size_t b = 0; b < stream.size(); ++b) {
                const std::string bctx =
                    ctx + " batch " + std::to_string(b);
                serve::Request req;
                req.kind = serve::RequestKind::Update;
                req.id = b;
                req.addedEdges = stream[b].adds;
                req.removedEdges = stream[b].removes;
                const serve::UpdateResult res = applier.apply({&req, 1});
                for (const Edge &e : stream[b].adds)
                    model.insert(e);
                for (const Edge &e : stream[b].removes)
                    model.erase(e);

                const auto state = hub->acquire();
                ASSERT_EQ(state->epoch, res.epoch) << bctx;
                ASSERT_EQ(state->graph,
                          CsrGraph::fromEdges(
                              n, std::vector<Edge>(model.begin(),
                                                   model.end())))
                    << bctx;
                ASSERT_NO_FATAL_FAILURE(
                    expectFullBuild(state->graph, state->scale, bctx));

                std::vector<serve::Request> reads;
                const auto read = [&](NodeId v) {
                    serve::Request r;
                    r.id = reads.size();
                    r.node = v;
                    reads.push_back(r);
                };
                for (const auto &span : {stream[b].adds, stream[b].removes})
                    for (const auto &[u, v] : span) {
                        read(u);
                        read(v);
                    }
                for (int i = 0; i < 4; ++i)
                    read(static_cast<NodeId>(rng.nextBounded(n)));
                const DenseMatrix ref =
                    referenceForward(state->graph, x, weights);
                for (const serve::InferenceResult &out :
                     engine.runBatch(reads)) {
                    ASSERT_EQ(out.epoch, state->epoch) << bctx;
                    ASSERT_EQ(std::memcmp(out.logits.data(),
                                          ref.row(out.node),
                                          ref.cols() * sizeof(float)),
                              0)
                        << bctx << " node " << out.node;
                }
            }
        }
    }
}

} // namespace
} // namespace igcn
