/**
 * @file
 * Unit tests for the CSR graph substrate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"

namespace igcn {
namespace {

TEST(CsrGraph, EmptyGraph)
{
    CsrGraph g = CsrGraph::fromEdges(0, {});
    EXPECT_EQ(g.numNodes(), 0u);
    EXPECT_EQ(g.numEdges(), 0u);
}

TEST(CsrGraph, DefaultAndMovedFromGraphsReportZeroNodes)
{
    // Regression: numNodes() used to compute rowPtr.size() - 1, which
    // underflows to 0xFFFFFFFF on an empty rowPtr. A default graph
    // must report 0, and so must a moved-from graph (whose rowPtr is
    // left empty), instead of sending every numNodes()-bounded loop
    // on a 4-billion-node walk.
    CsrGraph def;
    EXPECT_EQ(def.numNodes(), 0u);
    EXPECT_EQ(def.numEdges(), 0u);
    EXPECT_DOUBLE_EQ(def.avgDegree(), 0.0);
    EXPECT_EQ(def.maxDegree(), 0u);
    EXPECT_EQ(def.numSelfLoops(), 0u);
    EXPECT_TRUE(def.isSymmetric());

    CsrGraph donor = CsrGraph::fromEdges(3, {{0, 1}, {1, 2}});
    CsrGraph sink = std::move(donor);
    EXPECT_EQ(sink.numNodes(), 3u);
    EXPECT_EQ(donor.numNodes(), 0u);
    EXPECT_EQ(donor.numEdges(), 0u);
    EXPECT_EQ(donor.maxDegree(), 0u);
    EXPECT_TRUE(degreeHistogram(donor).size() == 1u);
    EXPECT_EQ(donor.withEditedEdges({}, {}).numNodes(), 0u);
    auto [comp, n] = connectedComponents(donor);
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(comp.empty());
}

TEST(CsrGraph, SingleEdgeSymmetrized)
{
    CsrGraph g = CsrGraph::fromEdges(3, {{0, 1}});
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_FALSE(g.hasEdge(0, 2));
    EXPECT_EQ(g.degree(2), 0u);
}

TEST(CsrGraph, DuplicateEdgesRemoved)
{
    CsrGraph g = CsrGraph::fromEdges(2, {{0, 1}, {0, 1}, {1, 0}});
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(CsrGraph, SelfLoopsDroppedByDefault)
{
    CsrGraph g = CsrGraph::fromEdges(2, {{0, 0}, {0, 1}});
    EXPECT_EQ(g.numSelfLoops(), 0u);
    CsrGraph g2 = CsrGraph::fromEdges(2, {{0, 0}, {0, 1}}, true, true);
    EXPECT_EQ(g2.numSelfLoops(), 1u);
}

TEST(CsrGraph, NeighborsSorted)
{
    CsrGraph g = CsrGraph::fromEdges(5, {{2, 4}, {2, 0}, {2, 3}});
    auto nbrs = g.neighbors(2);
    ASSERT_EQ(nbrs.size(), 3u);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(CsrGraph, OutOfRangeEdgeThrows)
{
    EXPECT_THROW(CsrGraph::fromEdges(2, {{0, 5}}), std::out_of_range);
}

TEST(CsrGraph, DegreeAndAverages)
{
    CsrGraph g = starGraph(5);
    EXPECT_EQ(g.degree(0), 4u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(g.maxDegree(), 4u);
    EXPECT_DOUBLE_EQ(g.avgDegree(), 8.0 / 5.0);
}

TEST(CsrGraph, SymmetryDetected)
{
    CsrGraph sym = CsrGraph::fromEdges(3, {{0, 1}, {1, 2}});
    EXPECT_TRUE(sym.isSymmetric());
    CsrGraph asym = CsrGraph::fromEdges(3, {{0, 1}}, /*symmetrize=*/false);
    EXPECT_FALSE(asym.isSymmetric());
}

TEST(CsrGraph, PermutedPreservesStructure)
{
    CsrGraph g = pathGraph(4); // 0-1-2-3
    std::vector<NodeId> perm = {3, 2, 1, 0};
    CsrGraph p = g.permuted(perm);
    EXPECT_TRUE(p.hasEdge(3, 2));
    EXPECT_TRUE(p.hasEdge(2, 1));
    EXPECT_TRUE(p.hasEdge(1, 0));
    EXPECT_EQ(p.numEdges(), g.numEdges());
    // Degrees are preserved under relabeling.
    for (NodeId v = 0; v < 4; ++v)
        EXPECT_EQ(p.degree(perm[v]), g.degree(v));
}

TEST(CsrGraph, ToEdgesRoundTrip)
{
    CsrGraph g = completeGraph(5);
    CsrGraph g2 = CsrGraph::fromEdges(5, g.toEdges(), false);
    EXPECT_EQ(g, g2);
}

TEST(CsrGraph, DegreeHistogram)
{
    CsrGraph g = starGraph(5);
    auto hist = degreeHistogram(g);
    ASSERT_EQ(hist.size(), 5u);
    EXPECT_EQ(hist[1], 4u);
    EXPECT_EQ(hist[4], 1u);
}

TEST(CsrGraph, ConnectedComponents)
{
    CsrGraph g = CsrGraph::fromEdges(6, {{0, 1}, {1, 2}, {4, 5}});
    auto [comp, n] = connectedComponents(g);
    EXPECT_EQ(n, 3u); // {0,1,2}, {3}, {4,5}
    EXPECT_EQ(comp[0], comp[1]);
    EXPECT_EQ(comp[1], comp[2]);
    EXPECT_EQ(comp[4], comp[5]);
    EXPECT_NE(comp[0], comp[3]);
    EXPECT_NE(comp[0], comp[4]);
}

TEST(CsrGraph, InEdgeIndexMatchesBruteForceReverseAdjacency)
{
    // Directed (non-symmetrized) graph so in- and out-adjacency
    // genuinely differ.
    CsrGraph g = CsrGraph::fromEdges(
        5, {{0, 2}, {1, 2}, {3, 2}, {2, 0}, {4, 0}},
        /*symmetrize=*/false);
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        std::vector<NodeId> expected;
        for (NodeId u = 0; u < g.numNodes(); ++u)
            if (g.hasEdge(u, v))
                expected.push_back(u);
        auto in = g.inNeighbors(v);
        ASSERT_EQ(in.size(), expected.size()) << "node " << v;
        EXPECT_TRUE(std::equal(in.begin(), in.end(),
                               expected.begin())) << "node " << v;
        EXPECT_EQ(g.inDegree(v), expected.size()) << "node " << v;
        EXPECT_TRUE(std::is_sorted(in.begin(), in.end()))
            << "node " << v;
    }
    // The index is cached: repeated calls hand back the same object.
    EXPECT_EQ(&g.inEdges(), &g.inEdges());
}

TEST(CsrGraph, MoveTransfersCachedInEdgeIndexAndClearsSource)
{
    // A move hands the built adjunct to the destination (which now
    // owns exactly the arrays it describes — no rebuild) and clears
    // the source slot, so the moved-from graph can never serve an
    // index for the 3-node contents it no longer has.
    CsrGraph g = CsrGraph::fromEdges(3, {{0, 1}, {1, 2}});
    const CsrGraph::InEdgeIndex *built = &g.inEdges();
    CsrGraph h = std::move(g);
    EXPECT_EQ(&h.inEdges(), built);
    EXPECT_EQ(h.inDegree(1), 2u);
    EXPECT_TRUE(g.inEdges().srcOf.empty());
    EXPECT_EQ(g.inEdges().inPtr.size(), 1u); // 0 nodes, well-formed
}

TEST(CsrGraph, InEdgeIndexOnSymmetricGraphEqualsOutAdjacency)
{
    CsrGraph g = erdosRenyi(200, 5.0, 7);
    ASSERT_TRUE(g.isSymmetric());
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        auto out = g.neighbors(v);
        auto in = g.inNeighbors(v);
        ASSERT_EQ(in.size(), out.size());
        EXPECT_TRUE(std::equal(in.begin(), in.end(), out.begin()));
    }
}

TEST(CsrGraph, FromCsrArraysValidatesInvariants)
{
    // Valid adoption round-trips.
    CsrGraph g = CsrGraph::fromCsrArrays({0, 2, 3, 4},
                                         {1, 2, 0, 0});
    EXPECT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_EQ(g.neighbors(0).size(), 2u);

    // Row pointer must start at 0 and end at col_idx.size().
    EXPECT_THROW(CsrGraph::fromCsrArrays({1, 2}, {0}),
                 std::invalid_argument);
    EXPECT_THROW(CsrGraph::fromCsrArrays({0, 2}, {0}),
                 std::invalid_argument);
    EXPECT_THROW(CsrGraph::fromCsrArrays({}, {}),
                 std::invalid_argument);
    // Monotonicity.
    EXPECT_THROW(CsrGraph::fromCsrArrays({0, 2, 1, 3}, {0, 1, 0}),
                 std::invalid_argument);
    // Column range.
    EXPECT_THROW(CsrGraph::fromCsrArrays({0, 1}, {5}),
                 std::invalid_argument);
    // Strictly ascending (sorted, no duplicates) per row.
    EXPECT_THROW(CsrGraph::fromCsrArrays({0, 2}, {1, 0}),
                 std::invalid_argument);
    EXPECT_THROW(CsrGraph::fromCsrArrays({0, 2}, {1, 1}),
                 std::invalid_argument);
}

TEST(CsrGraph, WithAddedEdgesMatchesEdgeListRebuild)
{
    // Differential: the O(E + k log k) merge must equal a full
    // rebuild from the combined edge list, across graph families and
    // adversarial additions (duplicates, already-present edges, self
    // loops, both orientations of the same edge).
    Rng rng(99);
    std::vector<CsrGraph> graphs;
    graphs.push_back(erdosRenyi(300, 6.0, 1));
    graphs.push_back(pathGraph(50));
    graphs.push_back(starGraph(40));
    graphs.push_back(CsrGraph::fromEdges(10, {}));
    for (const CsrGraph &g : graphs) {
        std::vector<Edge> added;
        for (int i = 0; i < 40; ++i) {
            const auto u =
                static_cast<NodeId>(rng.nextBounded(g.numNodes()));
            const auto v =
                static_cast<NodeId>(rng.nextBounded(g.numNodes()));
            added.emplace_back(u, v);
            if (i % 5 == 0)
                added.emplace_back(v, u); // reverse duplicate
        }
        CsrGraph merged = g.withAddedEdges(added);
        std::vector<Edge> all = g.toEdges();
        for (const Edge &e : added)
            all.push_back(e);
        CsrGraph rebuilt = CsrGraph::fromEdges(
            g.numNodes(), all, /*symmetrize=*/true);
        EXPECT_EQ(merged, rebuilt);
    }
    EXPECT_THROW(pathGraph(4).withAddedEdges(
                     std::vector<Edge>{{0, 9}}),
                 std::out_of_range);
}

TEST(CsrGraph, WithAddedEdgesNegativePaths)
{
    // The documented no-ops of the insertion path: self loops are
    // dropped, duplicates within one span and edges already present
    // are absorbed — the graph must come out unchanged, not throw.
    CsrGraph g = pathGraph(5);
    EXPECT_EQ(g.withAddedEdges(std::vector<Edge>{{2, 2}}), g);
    EXPECT_EQ(g.withAddedEdges(std::vector<Edge>{{0, 1}, {1, 0}}), g);
    CsrGraph once = g.withAddedEdges(std::vector<Edge>{{0, 3}});
    CsrGraph twice = g.withAddedEdges(
        std::vector<Edge>{{0, 3}, {3, 0}, {0, 3}});
    EXPECT_EQ(once, twice);
}

TEST(CsrGraph, WithRemovedEdgesMatchesEdgeListRebuild)
{
    // Differential mirror of the insertion test: the per-row
    // deletion sweep must equal a full rebuild from the filtered
    // edge list, across graph families.
    Rng rng(41);
    std::vector<CsrGraph> graphs;
    graphs.push_back(erdosRenyi(300, 6.0, 2));
    graphs.push_back(pathGraph(50));
    graphs.push_back(starGraph(40));
    for (const CsrGraph &g : graphs) {
        // Sample distinct existing undirected edges.
        std::vector<Edge> pool;
        for (const auto &[u, v] : g.toEdges())
            if (u < v)
                pool.emplace_back(u, v);
        std::vector<Edge> removed;
        for (int i = 0; i < 25 && !pool.empty(); ++i) {
            const size_t j = rng.nextBounded(pool.size());
            removed.push_back(pool[j]);
            pool[j] = pool.back();
            pool.pop_back();
        }
        CsrGraph pruned = g.withRemovedEdges(removed);
        std::set<Edge> gone;
        for (const auto &[u, v] : removed) {
            gone.insert({u, v});
            gone.insert({v, u});
        }
        std::vector<Edge> kept;
        for (const Edge &e : g.toEdges())
            if (!gone.count(e))
                kept.push_back(e);
        CsrGraph rebuilt = CsrGraph::fromEdges(
            g.numNodes(), kept, /*symmetrize=*/false);
        EXPECT_EQ(pruned, rebuilt);
        EXPECT_EQ(pruned.numEdges(),
                  g.numEdges() - 2 * removed.size());
    }
}

TEST(CsrGraph, WithEditedEdgesMatchesTwoPassComposition)
{
    // The one-pass merge sweep must equal add-then-remove for
    // disjoint spans, across graph families and adversarial spans
    // (duplicates, both orientations, self loops among the adds).
    Rng rng(57);
    std::vector<CsrGraph> graphs;
    graphs.push_back(erdosRenyi(300, 6.0, 3));
    graphs.push_back(pathGraph(50));
    graphs.push_back(starGraph(40));
    for (const CsrGraph &g : graphs) {
        std::set<Edge> present;
        for (const auto &[u, v] : g.toEdges())
            if (u < v)
                present.insert({u, v});
        std::vector<Edge> fresh, stale;
        std::set<Edge> touched; // keeps the two spans disjoint
        for (int i = 0; i < 30; ++i) {
            const auto u =
                static_cast<NodeId>(rng.nextBounded(g.numNodes()));
            const auto v =
                static_cast<NodeId>(rng.nextBounded(g.numNodes()));
            const Edge e{std::min(u, v), std::max(u, v)};
            if (u != v && !touched.insert(e).second)
                continue;
            if (u == v || !present.count(e)) {
                fresh.emplace_back(u, v);
                if (i % 4 == 0)
                    fresh.emplace_back(v, u); // reverse duplicate
            } else {
                stale.push_back(e);
            }
        }
        CsrGraph one = g.withEditedEdges(fresh, stale);
        CsrGraph two = g.withAddedEdges(fresh);
        if (!stale.empty())
            two = two.withRemovedEdges(stale);
        EXPECT_EQ(one, two);
    }
}

TEST(CsrGraph, WithEditedEdgesDegenerateSpans)
{
    // Empty spans degenerate to the single-span operations (and to a
    // structural copy when both are empty).
    CsrGraph g = erdosRenyi(100, 4.0, 9);
    EXPECT_EQ(g.withEditedEdges({}, {}), g);
    const std::vector<Edge> add{{0, 50}, {1, 60}};
    EXPECT_EQ(g.withEditedEdges(add, {}), g.withAddedEdges(add));
    std::vector<Edge> rem;
    for (const auto &[u, v] : g.toEdges())
        if (u < v && rem.size() < 3)
            rem.emplace_back(u, v);
    EXPECT_EQ(g.withEditedEdges({}, rem), g.withRemovedEdges(rem));
}

TEST(CsrGraph, WithEditedEdgesNegativePaths)
{
    CsrGraph g = pathGraph(6); // edges (i, i+1)
    // Out-of-range endpoints in either span.
    EXPECT_THROW(g.withEditedEdges(std::vector<Edge>{{0, 9}}, {}),
                 std::out_of_range);
    EXPECT_THROW(g.withEditedEdges({}, std::vector<Edge>{{0, 9}}),
                 std::out_of_range);
    // Removing an absent edge stays strict.
    EXPECT_THROW(g.withEditedEdges({}, std::vector<Edge>{{0, 5}}),
                 std::invalid_argument);
    // An edge in both spans is an ambiguous edit, either orientation.
    EXPECT_THROW(g.withEditedEdges(std::vector<Edge>{{0, 2}},
                                   std::vector<Edge>{{0, 2}}),
                 std::invalid_argument);
    EXPECT_THROW(g.withEditedEdges(std::vector<Edge>{{0, 2}},
                                   std::vector<Edge>{{2, 0}}),
                 std::invalid_argument);
}

TEST(CsrGraph, ArcSourceInvertsRowLayout)
{
    CsrGraph g = erdosRenyi(80, 4.0, 6);
    EdgeId e = 0;
    for (NodeId u = 0; u < g.numNodes(); ++u)
        for ([[maybe_unused]] NodeId v : g.neighbors(u))
            EXPECT_EQ(g.arcSource(e++), u);
    EXPECT_THROW(g.arcSource(g.numEdges()), std::out_of_range);
}

TEST(CsrGraph, WithRemovedEdgesNegativePaths)
{
    CsrGraph g = pathGraph(5); // edges 0-1, 1-2, 2-3, 3-4

    // Removing a nonexistent edge errors loudly.
    EXPECT_THROW(g.withRemovedEdges(std::vector<Edge>{{0, 3}}),
                 std::invalid_argument);
    // ... also when mixed with present edges, in any position.
    EXPECT_THROW(g.withRemovedEdges(
                     std::vector<Edge>{{0, 1}, {0, 4}}),
                 std::invalid_argument);
    // Out-of-range endpoints are a distinct loud error.
    EXPECT_THROW(g.withRemovedEdges(std::vector<Edge>{{0, 9}}),
                 std::out_of_range);
    // A self loop is an edge like any other: absent here, so loud.
    EXPECT_THROW(g.withRemovedEdges(std::vector<Edge>{{2, 2}}),
                 std::invalid_argument);
    // ... and removable when the graph actually stores it.
    CsrGraph with_loop = CsrGraph::fromEdges(
        3, {{0, 1}, {1, 1}}, /*symmetrize=*/true,
        /*keep_self_loops=*/true);
    CsrGraph no_loop =
        with_loop.withRemovedEdges(std::vector<Edge>{{1, 1}});
    EXPECT_EQ(no_loop.numSelfLoops(), 0u);
    EXPECT_TRUE(no_loop.hasEdge(0, 1));

    // Duplicates within one span (and both orientations of one
    // edge) collapse to a single removal: documented set semantics,
    // mirroring withAddedEdges.
    CsrGraph a = g.withRemovedEdges(
        std::vector<Edge>{{1, 2}, {2, 1}, {1, 2}});
    CsrGraph b = g.withRemovedEdges(std::vector<Edge>{{1, 2}});
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.hasEdge(1, 2));
    EXPECT_FALSE(a.hasEdge(2, 1));

    // Add-then-remove round-trips to the original graph.
    CsrGraph grown = g.withAddedEdges(std::vector<Edge>{{0, 4}});
    EXPECT_EQ(grown.withRemovedEdges(std::vector<Edge>{{4, 0}}), g);
}

TEST(CsrGraph, LHopFrontiersLevels)
{
    // Path 0-1-2-3-4-5: from node 0, frontiers {0}, {0,1}, {0,1,2}.
    CsrGraph p = pathGraph(6);
    const auto f = lHopFrontiers(p, std::vector<NodeId>{0}, 2);
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[0], (std::vector<NodeId>{0}));
    EXPECT_EQ(f[1], (std::vector<NodeId>{0, 1}));
    EXPECT_EQ(f[2], (std::vector<NodeId>{0, 1, 2}));

    // 0 hops: the deduplicated targets, ascending.
    const auto zero = lHopFrontiers(p, std::vector<NodeId>{3, 1, 3}, 0);
    ASSERT_EQ(zero.size(), 1u);
    EXPECT_EQ(zero[0], (std::vector<NodeId>{1, 3}));

    // No targets: every frontier is empty.
    const auto none = lHopFrontiers(p, std::vector<NodeId>{}, 2);
    ASSERT_EQ(none.size(), 3u);
    EXPECT_TRUE(none[2].empty());

    EXPECT_THROW(lHopFrontiers(p, std::vector<NodeId>{6}, 1),
                 std::out_of_range);
    EXPECT_THROW(lHopFrontiers(p, std::vector<NodeId>{0}, -1),
                 std::invalid_argument);
}

/** Distance of every node from the nearest target (~0u: unreached). */
std::vector<NodeId>
bruteDistances(const CsrGraph &g, const std::vector<NodeId> &targets)
{
    constexpr NodeId kInf = ~NodeId{0};
    std::vector<NodeId> dist(g.numNodes(), kInf);
    for (NodeId t : targets)
        dist[t] = 0;
    // Bellman-Ford-style relaxation: no queue, so it shares nothing
    // with the BFS under test.
    for (bool changed = true; changed;) {
        changed = false;
        for (NodeId u = 0; u < g.numNodes(); ++u)
            if (dist[u] != kInf)
                for (NodeId v : g.neighbors(u))
                    if (dist[u] + 1 < dist[v]) {
                        dist[v] = dist[u] + 1;
                        changed = true;
                    }
    }
    return dist;
}

TEST(CsrGraph, LHopFrontiersMatchBruteForceDistances)
{
    // Per level, frontier k must be exactly the nodes at distance
    // <= k from some target, ascending, with no duplicates.
    const CsrGraph g =
        hubAndIslandGraph({.numNodes = 600, .seed = 4}).graph;
    const CsrGraph er = erdosRenyi(300, 3.0, 8);
    Rng rng(12);
    for (const CsrGraph *graph : {&g, &er}) {
        const NodeId n = graph->numNodes();
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<NodeId> targets;
            for (int i = 0; i < 1 + trial % 6; ++i)
                targets.push_back(
                    static_cast<NodeId>(rng.nextBounded(n)));
            targets.push_back(targets.front()); // duplicate
            const int hops = trial % 4;
            const auto got = lHopFrontiers(*graph, targets, hops);
            const std::vector<NodeId> dist =
                bruteDistances(*graph, targets);
            ASSERT_EQ(got.size(), static_cast<size_t>(hops + 1));
            for (int k = 0; k <= hops; ++k) {
                std::vector<NodeId> want;
                for (NodeId v = 0; v < n; ++v)
                    if (dist[v] <= static_cast<NodeId>(k))
                        want.push_back(v);
                EXPECT_EQ(got[k], want)
                    << "trial " << trial << " level " << k;
            }
        }
    }
}

TEST(Permutation, Validity)
{
    EXPECT_TRUE(isPermutation({2, 0, 1}));
    EXPECT_FALSE(isPermutation({0, 0, 1}));
    EXPECT_FALSE(isPermutation({0, 3, 1}));
}

TEST(Permutation, Inverse)
{
    std::vector<NodeId> perm = {2, 0, 1};
    auto inv = inversePermutation(perm);
    for (NodeId v = 0; v < 3; ++v)
        EXPECT_EQ(inv[perm[v]], v);
}

} // namespace
} // namespace igcn
