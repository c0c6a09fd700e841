/**
 * @file
 * Tests of the Island Locator (Algorithms 1-4): classification
 * completeness, the edge-coverage invariant, island size bounds,
 * determinism, and behaviour on canonical graph shapes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "core/locator.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"

namespace igcn {
namespace {

/** Assert the full set of islandization postconditions on (g, isl). */
void
checkInvariants(const CsrGraph &g, const IslandizationResult &isl,
                const LocatorConfig &cfg)
{
    const NodeId n = g.numNodes();
    ASSERT_EQ(isl.role.size(), n);

    // 1. Every node classified.
    for (NodeId v = 0; v < n; ++v)
        EXPECT_NE(isl.role[v], NodeRole::Unclassified) << "node " << v;

    // 2. Island membership is consistent and bounded by cmax.
    std::vector<uint32_t> member_of(n, IslandizationResult::kNoIsland);
    for (size_t i = 0; i < isl.islands.size(); ++i) {
        const Island &island = isl.islands[i];
        EXPECT_GE(island.nodes.size(), 1u);
        EXPECT_LE(island.nodes.size(), cfg.maxIslandSize);
        for (NodeId v : island.nodes) {
            EXPECT_EQ(isl.role[v], NodeRole::IslandNode);
            EXPECT_EQ(member_of[v], IslandizationResult::kNoIsland)
                << "node " << v << " in two islands";
            member_of[v] = static_cast<uint32_t>(i);
        }
        for (NodeId h : island.hubs)
            EXPECT_EQ(isl.role[h], NodeRole::Hub);
    }
    for (NodeId v = 0; v < n; ++v) {
        if (isl.role[v] == NodeRole::IslandNode) {
            EXPECT_EQ(member_of[v], isl.islandOf[v]);
            EXPECT_NE(member_of[v], IslandizationResult::kNoIsland)
                << "island node " << v << " not in any island";
        } else {
            EXPECT_EQ(isl.islandOf[v], IslandizationResult::kNoIsland);
            EXPECT_GT(isl.hubRound[v], 0);
        }
    }

    // 3. Edge coverage: every edge is island-island (same island),
    //    island-hub (hub in that island's hub list), or hub-hub (in
    //    the inter-hub map).
    std::set<Edge> inter_hub(isl.interHubEdges.begin(),
                             isl.interHubEdges.end());
    std::vector<std::set<NodeId>> island_hubs(isl.islands.size());
    for (size_t i = 0; i < isl.islands.size(); ++i)
        island_hubs[i].insert(isl.islands[i].hubs.begin(),
                              isl.islands[i].hubs.end());

    for (NodeId u = 0; u < n; ++u) {
        for (NodeId v : g.neighbors(u)) {
            const bool u_hub = isl.role[u] == NodeRole::Hub;
            const bool v_hub = isl.role[v] == NodeRole::Hub;
            if (u_hub && v_hub) {
                EXPECT_TRUE(inter_hub.count(
                    {std::min(u, v), std::max(u, v)}))
                    << "hub-hub edge " << u << "-" << v
                    << " missing from inter-hub map";
            } else if (!u_hub && !v_hub) {
                EXPECT_EQ(isl.islandOf[u], isl.islandOf[v])
                    << "island-island edge " << u << "-" << v
                    << " crosses islands";
            } else {
                NodeId island_node = u_hub ? v : u;
                NodeId hub = u_hub ? u : v;
                EXPECT_TRUE(
                    island_hubs[isl.islandOf[island_node]].count(hub))
                    << "island-hub edge " << u << "-" << v
                    << " missing from island's hub list";
            }
        }
    }

    // 4. Inter-hub map contains only real hub-hub edges.
    for (const auto &[h1, h2] : isl.interHubEdges) {
        EXPECT_EQ(isl.role[h1], NodeRole::Hub);
        EXPECT_EQ(isl.role[h2], NodeRole::Hub);
        EXPECT_TRUE(g.hasEdge(h1, h2));
        EXPECT_LE(h1, h2);
    }

    // 5. Thresholds strictly decrease across rounds.
    for (size_t r = 1; r < isl.thresholds.size(); ++r)
        EXPECT_LT(isl.thresholds[r], isl.thresholds[r - 1]);
}

TEST(Locator, StarGraph)
{
    CsrGraph g = starGraph(10);
    auto isl = islandize(g);
    checkInvariants(g, isl, {});
    // The center must be a hub; each leaf a singleton island.
    EXPECT_EQ(isl.role[0], NodeRole::Hub);
    EXPECT_EQ(isl.islands.size(), 9u);
    for (const Island &island : isl.islands) {
        EXPECT_EQ(island.nodes.size(), 1u);
        ASSERT_EQ(island.hubs.size(), 1u);
        EXPECT_EQ(island.hubs[0], 0u);
    }
}

TEST(Locator, IsolatedNodesBecomeSingletonIslands)
{
    CsrGraph g = CsrGraph::fromEdges(5, {{0, 1}});
    auto isl = islandize(g);
    checkInvariants(g, isl, {});
    for (NodeId v = 2; v < 5; ++v) {
        EXPECT_EQ(isl.role[v], NodeRole::IslandNode);
        EXPECT_TRUE(isl.islands[isl.islandOf[v]].hubs.empty());
    }
}

TEST(Locator, CompleteGraphAllCovered)
{
    CsrGraph g = completeGraph(8);
    auto isl = islandize(g);
    checkInvariants(g, isl, {});
}

TEST(Locator, PathGraph)
{
    CsrGraph g = pathGraph(20);
    auto isl = islandize(g);
    checkInvariants(g, isl, {});
}

TEST(Locator, EmptyGraph)
{
    CsrGraph g = CsrGraph::fromEdges(0, {});
    auto isl = islandize(g);
    EXPECT_TRUE(isl.islands.empty());
    EXPECT_EQ(isl.numHubs(), 0u);
}

TEST(Locator, HubAndIslandGraphInvariants)
{
    HubIslandParams params;
    params.numNodes = 2000;
    params.seed = 7;
    auto hi = hubAndIslandGraph(params);
    LocatorConfig cfg;
    auto isl = islandize(hi.graph, cfg);
    checkInvariants(hi.graph, isl, cfg);
    EXPECT_GT(isl.islands.size(), 10u);
    EXPECT_GT(isl.numHubs(), 0u);
}

TEST(Locator, Deterministic)
{
    auto hi = hubAndIslandGraph({.numNodes = 500, .seed = 3});
    auto a = islandize(hi.graph);
    auto b = islandize(hi.graph);
    EXPECT_EQ(a.islands.size(), b.islands.size());
    EXPECT_EQ(a.interHubEdges, b.interHubEdges);
    for (size_t i = 0; i < a.islands.size(); ++i) {
        EXPECT_TRUE(
            std::ranges::equal(a.islands[i].nodes, b.islands[i].nodes));
        EXPECT_TRUE(
            std::ranges::equal(a.islands[i].hubs, b.islands[i].hubs));
    }
}

TEST(Locator, RespectsMaxIslandSize)
{
    // NodeId max means "no size limit": task buffers must be capped by
    // the node count, not reserve cmax + 1 slots (16 GiB) per task.
    constexpr NodeId kUnbounded = std::numeric_limits<NodeId>::max();
    auto hi = hubAndIslandGraph({.numNodes = 1000, .seed = 11});
    for (NodeId cmax : {1u, 2u, 4u, 8u, 64u, kUnbounded}) {
        for (bool engines : {false, true}) {
            LocatorConfig cfg;
            cfg.maxIslandSize = cmax;
            cfg.parallelEngines = engines;
            auto isl = islandize(hi.graph, cfg);
            checkInvariants(hi.graph, isl, cfg);
            if (cmax == kUnbounded) {
                EXPECT_EQ(isl.stats.tasksDroppedOversize, 0u);
            }
        }
    }
}

TEST(Locator, InvalidConfigRejected)
{
    CsrGraph g = pathGraph(4);
    LocatorConfig bad;
    bad.decay = 1.5;
    EXPECT_THROW(islandize(g, bad), std::invalid_argument);
    bad = {};
    bad.maxIslandSize = 0;
    EXPECT_THROW(islandize(g, bad), std::invalid_argument);
}

TEST(Locator, ConvergesInFewRoundsOnDatasets)
{
    // Paper Section 4.2: all non-zeros clustered "within several
    // rounds". Scaled-down surrogates keep the test fast.
    for (Dataset d : {Dataset::Cora, Dataset::Citeseer}) {
        auto data = buildDataset(d, 0.25);
        auto isl = islandize(data.graph);
        checkInvariants(data.graph, isl, {});
        EXPECT_LE(isl.numRounds, 16);
        EXPECT_GE(isl.numRounds, 2);
    }
}

TEST(Locator, StatsAreConsistent)
{
    auto hi = hubAndIslandGraph({.numNodes = 1500, .seed = 23});
    auto isl = islandize(hi.graph);
    const auto &s = isl.stats;
    EXPECT_EQ(s.islandsFound, isl.islands.size());
    EXPECT_EQ(s.tasksGenerated,
              s.tasksInterHub + s.tasksDroppedStartVisited +
              s.tasksDroppedCollision + s.tasksDroppedOversize +
              /* tasks that ran to completion: */ s.islandsFound -
              /* singleton cleanup islands aren't tasks: */
              std::count_if(isl.islands.begin(), isl.islands.end(),
                            [](const Island &i) {
                                return i.hubs.empty() &&
                                       i.nodes.size() == 1;
                            }));
    EXPECT_GE(s.edgesScanned, s.edgesScannedWasted);
}

/** Parameterized sweep: invariants hold across generator regimes. */
class LocatorPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double, int>>
{};

TEST_P(LocatorPropertyTest, InvariantsHold)
{
    auto [nodes, intra_prob, cmax] = GetParam();
    HubIslandParams params;
    params.numNodes = static_cast<NodeId>(nodes);
    params.intraIslandProb = intra_prob;
    params.seed = static_cast<uint64_t>(nodes) * 31 + cmax;
    auto hi = hubAndIslandGraph(params);
    LocatorConfig cfg;
    cfg.maxIslandSize = static_cast<NodeId>(cmax);
    auto isl = islandize(hi.graph, cfg);
    checkInvariants(hi.graph, isl, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LocatorPropertyTest,
    ::testing::Combine(::testing::Values(64, 256, 1024),
                       ::testing::Values(0.2, 0.5, 0.9),
                       ::testing::Values(4, 16, 32)));

/** Random-graph property sweep: no planted structure at all. */
class LocatorRandomGraphTest
    : public ::testing::TestWithParam<std::tuple<int, double>>
{};

TEST_P(LocatorRandomGraphTest, InvariantsHoldOnEr)
{
    auto [nodes, avg_deg] = GetParam();
    CsrGraph g = erdosRenyi(static_cast<NodeId>(nodes), avg_deg,
                            static_cast<uint64_t>(nodes * avg_deg));
    LocatorConfig cfg;
    auto isl = islandize(g, cfg);
    checkInvariants(g, isl, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LocatorRandomGraphTest,
    ::testing::Combine(::testing::Values(50, 300, 2000),
                       ::testing::Values(1.0, 4.0, 16.0)));

/**
 * Parallel-engine mode: P2 concurrent TP-BFS engines interleaved
 * round-robin. Different interleavings may discover different island
 * sets, but every postcondition must hold for all of them.
 */
class LocatorParallelTest : public ::testing::TestWithParam<int>
{};

TEST_P(LocatorParallelTest, InvariantsHoldUnderConcurrency)
{
    auto hi = hubAndIslandGraph({.numNodes = 1500, .seed = 99});
    LocatorConfig cfg;
    cfg.parallelEngines = true;
    cfg.p2 = GetParam();
    auto isl = islandize(hi.graph, cfg);
    checkInvariants(hi.graph, isl, cfg);
    EXPECT_GT(isl.islands.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(EngineCounts, LocatorParallelTest,
                         ::testing::Values(1, 2, 8, 64, 256));

TEST(LocatorParallel, SingleEngineMatchesSequentialCoverage)
{
    // One engine serializes tasks exactly like the sequential mode:
    // the classification totals must agree.
    auto hi = hubAndIslandGraph({.numNodes = 1000, .seed = 5});
    LocatorConfig seq;
    LocatorConfig par;
    par.parallelEngines = true;
    par.p2 = 1;
    auto a = islandize(hi.graph, seq);
    auto b = islandize(hi.graph, par);
    EXPECT_EQ(a.numHubs(), b.numHubs());
    EXPECT_EQ(a.islands.size(), b.islands.size());
    EXPECT_EQ(a.interHubEdges, b.interHubEdges);
}

TEST(LocatorParallel, ConcurrencyTriggersCollisions)
{
    // With many engines racing inside the same regions, break
    // condition A (in-flight collision) must actually fire.
    auto hi = hubAndIslandGraph(
        {.numNodes = 3000, .meanIslandSize = 20, .seed = 17});
    LocatorConfig cfg;
    cfg.parallelEngines = true;
    cfg.p2 = 64;
    auto isl = islandize(hi.graph, cfg);
    checkInvariants(hi.graph, isl, cfg);
    EXPECT_GT(isl.stats.tasksDroppedCollision, 0u);
}

TEST(LocatorParallel, DeterministicGivenEngineCount)
{
    auto hi = hubAndIslandGraph({.numNodes = 800, .seed = 12});
    LocatorConfig cfg;
    cfg.parallelEngines = true;
    cfg.p2 = 16;
    auto a = islandize(hi.graph, cfg);
    auto b = islandize(hi.graph, cfg);
    EXPECT_EQ(a.islands.size(), b.islands.size());
    for (size_t i = 0; i < a.islands.size(); ++i)
        EXPECT_TRUE(
            std::ranges::equal(a.islands[i].nodes, b.islands[i].nodes));
}

TEST(LocatorParallel, DatasetSurrogates)
{
    for (Dataset d : {Dataset::Cora, Dataset::Pubmed}) {
        auto data = buildDataset(d, 0.25);
        LocatorConfig cfg;
        cfg.parallelEngines = true;
        auto isl = islandize(data.graph, cfg);
        checkInvariants(data.graph, isl, cfg);
    }
}

TEST(Locator, RmatGraphInvariants)
{
    CsrGraph g = rmat(4096, 20000, 0.57, 0.19, 0.19, 99);
    LocatorConfig cfg;
    auto isl = islandize(g, cfg);
    checkInvariants(g, isl, cfg);
}

} // namespace
} // namespace igcn
