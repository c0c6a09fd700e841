/**
 * @file
 * Unit tests of IslandTable (core/island.hpp), the flat CSR-style
 * store of an islandization's islands: appending, splicing out
 * dissolved runs the way the incremental update does, the empty
 * table, equality, and Island views over the flat arrays.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <ranges>
#include <vector>

#include "core/incremental.hpp"
#include "graph/generators.hpp"

namespace igcn {
namespace {

static_assert(std::forward_iterator<IslandTable::Iterator>);
static_assert(std::ranges::forward_range<IslandTable>);

/** One island's contents, owned. */
struct Spec
{
    std::vector<NodeId> nodes;
    std::vector<NodeId> hubs;
    int round;
    EdgeId scanned;
};

const std::vector<Spec> kSpecs = {
    {{7, 3, 9}, {1, 4}, 1, 12},
    {{5}, {}, 1, 0},
    {{2, 8}, {4}, 2, 6},
    {{11, 12, 13, 14}, {0, 1, 4}, 2, 30},
    {{6}, {0}, 3, 2},
};

IslandTable
build(const std::vector<Spec> &specs)
{
    IslandTable t;
    for (const Spec &s : specs)
        t.append(s.nodes, s.hubs, s.round, s.scanned);
    return t;
}

/** Every island of t, copied out through its view. */
std::vector<Spec>
contents(const IslandTable &t)
{
    std::vector<Spec> out;
    for (const Island island : t)
        out.push_back({{island.nodes.begin(), island.nodes.end()},
                       {island.hubs.begin(), island.hubs.end()},
                       island.round,
                       island.edgesScanned});
    return out;
}

void
expectSame(const std::vector<Spec> &got, const std::vector<Spec> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].nodes, want[i].nodes) << "island " << i;
        EXPECT_EQ(got[i].hubs, want[i].hubs) << "island " << i;
        EXPECT_EQ(got[i].round, want[i].round) << "island " << i;
        EXPECT_EQ(got[i].scanned, want[i].scanned) << "island " << i;
    }
}

TEST(IslandTable, EmptyTable)
{
    const IslandTable t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.begin(), t.end());
    EXPECT_EQ(t.memberOffsets(), std::vector<EdgeId>{0});
    EXPECT_EQ(t.hubOffsets(), std::vector<EdgeId>{0});
    EXPECT_TRUE(t.memberIds().empty());
    EXPECT_TRUE(t.hubIds().empty());
    EXPECT_EQ(t, IslandTable{});

    // Splicing nothing out of nothing, or an empty run, is a no-op.
    IslandTable u;
    u.appendIslands(t, 0, 0);
    EXPECT_EQ(u, t);
    u = build(kSpecs);
    u.appendIslands(build(kSpecs), 2, 2);
    EXPECT_EQ(u, build(kSpecs));
}

TEST(IslandTable, AppendKeepsEveryField)
{
    const IslandTable t = build(kSpecs);
    EXPECT_EQ(t.size(), kSpecs.size());
    EXPECT_FALSE(t.empty());
    expectSame(contents(t), kSpecs);
    EXPECT_EQ(std::ranges::distance(t), std::ptrdiff_t(kSpecs.size()));
    EXPECT_TRUE(std::ranges::equal(t.front().nodes, kSpecs.front().nodes));
    EXPECT_TRUE(std::ranges::equal(t.back().hubs, kSpecs.back().hubs));
    // An island without hubs and a singleton island.
    EXPECT_TRUE(t[1].hubs.empty());
    EXPECT_EQ(t[1].nodes.size(), 1u);
}

TEST(IslandTable, ViewsAreSpansOverTheFlatArrays)
{
    const IslandTable t = build(kSpecs);
    const std::vector<EdgeId> &mptr = t.memberOffsets();
    const std::vector<EdgeId> &hptr = t.hubOffsets();
    ASSERT_EQ(mptr.size(), t.size() + 1);
    ASSERT_EQ(hptr.size(), t.size() + 1);
    EXPECT_EQ(mptr.front(), 0u);
    EXPECT_EQ(hptr.front(), 0u);
    EXPECT_EQ(mptr.back(), t.memberIds().size());
    EXPECT_EQ(hptr.back(), t.hubIds().size());
    for (size_t i = 0; i < t.size(); ++i) {
        const Island island = t[i];
        EXPECT_EQ(island.nodes.data(), t.memberIds().data() + mptr[i]);
        EXPECT_EQ(island.nodes.size(), mptr[i + 1] - mptr[i]);
        EXPECT_EQ(island.hubs.data(), t.hubIds().data() + hptr[i]);
        EXPECT_EQ(island.hubs.size(), hptr[i + 1] - hptr[i]);
    }
}

TEST(IslandTable, SpliceOutDissolvedIslands)
{
    // Dissolve the first, a middle, the last, and a run of two
    // islands: bulk-copying the surviving runs must equal appending
    // the survivors one by one, offsets included.
    const IslandTable src = build(kSpecs);
    const std::vector<std::vector<size_t>> dissolved = {
        {0}, {2}, {kSpecs.size() - 1}, {1, 2}, {0, kSpecs.size() - 1},
        {0, 1, 2, 3, 4}};
    for (const std::vector<size_t> &drop : dissolved) {
        std::vector<Spec> kept;
        for (size_t i = 0; i < kSpecs.size(); ++i)
            if (std::ranges::find(drop, i) == drop.end())
                kept.push_back(kSpecs[i]);
        IslandTable spliced;
        size_t run = 0;
        for (size_t id : drop) {
            spliced.appendIslands(src, run, id);
            run = id + 1;
        }
        spliced.appendIslands(src, run, src.size());
        expectSame(contents(spliced), kept);
        EXPECT_EQ(spliced, build(kept));

        // Repaired islands append after the survivors.
        const std::vector<NodeId> nodes{40, 41}, hubs{1};
        spliced.append(nodes, hubs, 1);
        kept.push_back({nodes, hubs, 1, 0});
        EXPECT_EQ(spliced, build(kept));
    }
}

TEST(IslandTable, EqualityComparesEveryField)
{
    const IslandTable t = build(kSpecs);
    EXPECT_EQ(t, build(kSpecs));
    for (size_t field = 0; field < 4; ++field) {
        std::vector<Spec> other = kSpecs;
        switch (field) {
        case 0: other[2].nodes.back()++; break;
        case 1: other[3].hubs.front()++; break;
        case 2: other[1].round++; break;
        case 3: other[4].scanned++; break;
        }
        EXPECT_NE(t, build(other)) << "field " << field;
    }
    // Same flat member array, different island boundaries.
    EXPECT_NE(build({{{1, 2}, {}, 1, 0}, {{3}, {}, 1, 0}}),
              build({{{1}, {}, 1, 0}, {{2, 3}, {}, 1, 0}}));
}

TEST(IslandTable, UpdatedTableIsWellFormed)
{
    // The incremental update splices its table: rebuilding it island
    // by island from the views must give back the same arrays.
    const CsrGraph g =
        hubAndIslandGraph({.numNodes = 400, .seed = 21}).graph;
    const IslandizationResult isl = islandize(g);
    std::vector<Edge> removed;
    for (NodeId u = 0; u < g.numNodes() && removed.size() < 6; u += 37)
        if (g.degree(u) > 0)
            removed.push_back({std::min(u, g.neighbors(u).front()),
                               std::max(u, g.neighbors(u).front())});
    std::ranges::sort(removed);
    removed.erase(std::unique(removed.begin(), removed.end()),
                  removed.end());
    const CsrGraph g2 = g.withRemovedEdges(removed);
    IncrementalStats st;
    const IslandizationResult next =
        updateIslandization(g2, isl, {}, removed, {}, &st);
    ASSERT_GT(st.islandsDissolved, 0u);
    IslandTable rebuilt;
    for (const Island island : next.islands)
        rebuilt.append(island.nodes, island.hubs, island.round,
                       island.edgesScanned);
    EXPECT_EQ(rebuilt, next.islands);
    for (size_t i = 0; i < next.islands.size(); ++i)
        for (NodeId v : next.islands[i].nodes)
            EXPECT_EQ(next.islandOf[v], i);
}

} // namespace
} // namespace igcn
