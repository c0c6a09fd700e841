#include "core/incremental.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace igcn {

namespace {

/** Insert e into the sorted unique vector; false if already there. */
bool
insertSorted(std::vector<Edge> &sorted, const Edge &e)
{
    auto it = std::lower_bound(sorted.begin(), sorted.end(), e);
    if (it != sorted.end() && *it == e)
        return false;
    sorted.insert(it, e);
    return true;
}

/** Erase e from the sorted unique vector; false if it was absent. */
bool
eraseSorted(std::vector<Edge> &sorted, const Edge &e)
{
    auto it = std::lower_bound(sorted.begin(), sorted.end(), e);
    if (it == sorted.end() || *it != e)
        return false;
    sorted.erase(it);
    return true;
}

/** Sort and deduplicate in place. */
template <typename T>
void
sortUnique(std::vector<T> &v)
{
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

/**
 * Local TP-BFS over the dirty region. Mirrors the locator's
 * sequential engine but only traverses unclassified nodes; any node
 * already classified as Hub (old or newly promoted) is a border.
 *
 * The visit marks are sized to the dirty list, not the graph: while
 * the repair runs, an unclassified node's islandOf entry holds its
 * slot in that list (it would otherwise be kNoIsland), and the node
 * gets its real islandOf when it is classified. Every unclassified
 * node is dirty, so every mark lookup has a slot.
 */
struct RepairState
{
    const CsrGraph &g;
    const LocatorConfig &cfg;
    IslandizationResult &out;
    std::vector<uint32_t> visitedRound;
    std::vector<uint64_t> visitedTask;
    uint64_t taskCounter = 0;
    uint64_t edgesScanned = 0;

    RepairState(const CsrGraph &graph, const LocatorConfig &c,
                IslandizationResult &result,
                const std::vector<NodeId> &dirty)
        : g(graph), cfg(c), out(result), visitedRound(dirty.size(), 0),
          visitedTask(dirty.size(), 0)
    {
        for (size_t i = 0; i < dirty.size(); ++i)
            out.islandOf[dirty[i]] = static_cast<uint32_t>(i);
    }

    /** Dirty-list slot of an unclassified node. */
    uint32_t
    slot(NodeId n) const
    {
        assert(out.role[n] == NodeRole::Unclassified);
        return out.islandOf[n];
    }

    bool
    isBorder(NodeId n, NodeId th) const
    {
        return out.role[n] == NodeRole::Hub || g.degree(n) >= th;
    }

    /** Record an island; its members must all be unclassified. */
    void
    commit(std::span<const NodeId> nodes, std::span<const NodeId> hubs,
           uint32_t round)
    {
        const auto id = static_cast<uint32_t>(out.islands.size());
        for (NodeId v : nodes) {
            out.role[v] = NodeRole::IslandNode;
            out.islandOf[v] = id;
        }
        out.islands.append(nodes, hubs, static_cast<int>(round));
    }

    /** @return true if an island was recorded. */
    bool
    bfs(NodeId hub0, NodeId a0, NodeId th, uint32_t round)
    {
        const uint64_t task_id = ++taskCounter;
        std::vector<NodeId> v_local{a0};
        std::vector<NodeId> h_local{hub0};
        visitedTask[slot(a0)] = task_id;
        visitedRound[slot(a0)] = round;
        size_t query = 0, count = 1;
        while (query != count) {
            NodeId node = v_local[query];
            for (NodeId n : g.neighbors(node)) {
                edgesScanned++;
                if (isBorder(n, th)) {
                    h_local.push_back(n);
                    continue;
                }
                // A live island's node was never marked by this task.
                if (out.role[n] == NodeRole::IslandNode)
                    return false;
                const uint32_t s = slot(n);
                if (visitedTask[s] == task_id) {
                    // locally explored
                } else if (visitedRound[s] == round) {
                    // Region touches a claimed region: cannot be a
                    // clean island this round.
                    return false;
                } else {
                    count++;
                    v_local.push_back(n);
                    visitedTask[s] = task_id;
                    visitedRound[s] = round;
                    if (count > cfg.maxIslandSize)
                        return false;
                }
            }
            query++;
        }
        sortUnique(h_local);
        commit(v_local, h_local, round);
        return true;
    }
};

} // namespace

std::vector<uint32_t>
dirtyIslandEndpointSweep(const CsrGraph &g,
                         const IslandizationResult &result,
                         std::span<const Edge> added,
                         std::span<const Edge> removed)
{
    std::vector<uint32_t> dirty;
    auto sweep_endpoint = [&](NodeId x) {
        if (result.role[x] == NodeRole::IslandNode) {
            dirty.push_back(result.islandOf[x]);
        } else if (result.role[x] == NodeRole::Hub) {
            for (NodeId n : g.neighbors(x))
                if (result.role[n] == NodeRole::IslandNode)
                    dirty.push_back(result.islandOf[n]);
        }
    };
    for (const auto &span : {added, removed})
        for (const auto &[u, v] : span) {
            sweep_endpoint(u);
            sweep_endpoint(v);
        }
    sortUnique(dirty);
    return dirty;
}

IslandizationResult
updateIslandization(const CsrGraph &g,
                    const IslandizationResult &old_result,
                    std::span<const Edge> added,
                    std::span<const Edge> removed,
                    const LocatorConfig &cfg, IncrementalStats *stats,
                    IslandProvenance *provenance)
{
    // Every field but the island table, which is spliced in step 2.
    IslandizationResult out;
    out.rounds = old_result.rounds;
    out.taskTrace = old_result.taskTrace;
    out.role = old_result.role;
    out.islandOf = old_result.islandOf;
    out.hubRound = old_result.hubRound;
    out.interHubEdges = old_result.interHubEdges;
    out.thresholds = old_result.thresholds;
    out.numRounds = old_result.numRounds;
    out.stats = old_result.stats;
    const IslandTable &old_islands = old_result.islands;
    std::vector<Edge> &inter_hub = out.interHubEdges; // sorted, unique
    IncrementalStats local_stats;

    std::vector<uint32_t> dissolve;

    // --- 1a. Classify each removed edge (dissolve-on-remove). ------
    // In a valid old islandization every removed edge was covered as
    // intra-island, island-hub, or hub-hub; the rules below undo
    // exactly that coverage.
    std::vector<NodeId> demotion_check;
    for (const auto &[u, v] : removed) {
        for (NodeId x : {u, v}) {
            if (out.role[x] == NodeRole::Hub)
                demotion_check.push_back(x);
            else if (out.role[x] == NodeRole::IslandNode)
                dissolve.push_back(out.islandOf[x]);
        }
        if (out.role[u] == NodeRole::Hub &&
            out.role[v] == NodeRole::Hub) {
            // A failed erase means a duplicate within the span
            // (callers pass deduplicated spans; withRemovedEdges
            // collapses duplicates the same way): not an absorbed
            // edge, so it counts nowhere.
            if (eraseSorted(inter_hub, {std::min(u, v), std::max(u, v)}))
                local_stats.edgesRemovedInterHub++;
        }
    }
    sortUnique(demotion_check);

    // --- 1b. Demote hubs starved by the removals. ------------------
    // A hub that kept >= kDemotionFloor edges still works as a
    // border, whatever a fresh run would decide; below the floor it
    // cannot connect anything and must be re-classified. Demotion
    // dissolves every island listing the hub (all islands adjacent
    // to it — coverage says an adjacent island lists it) and erases
    // its surviving inter-hub entries; the edges resurface through
    // the repair BFS's border collection, or the new-hub promotion
    // pass if the node re-qualifies at a lower threshold.
    constexpr NodeId kDemotionFloor = 2;
    std::vector<NodeId> demoted;
    for (NodeId h : demotion_check) {
        if (g.degree(h) >= kDemotionFloor)
            continue;
        out.role[h] = NodeRole::Unclassified;
        out.hubRound[h] = 0;
        demoted.push_back(h);
        local_stats.hubsDemoted++;
        for (NodeId n : g.neighbors(h)) {
            eraseSorted(inter_hub, {std::min(h, n), std::max(h, n)});
            if (out.role[n] == NodeRole::IslandNode)
                dissolve.push_back(out.islandOf[n]);
        }
    }

    // --- 1c. Classify each added edge. -----------------------------
    auto island_has_hub = [&](uint32_t island_id, NodeId hub) {
        const std::span<const NodeId> hubs = old_islands[island_id].hubs;
        return std::binary_search(hubs.begin(), hubs.end(), hub);
    };
    for (const auto &[u, v] : added) {
        if (out.role[u] == NodeRole::Unclassified ||
            out.role[v] == NodeRole::Unclassified) {
            // A demoted endpoint rides the repair; a live-island
            // partner must dissolve so the dirty set stays closed
            // under adjacency.
            for (NodeId x : {u, v})
                if (out.role[x] == NodeRole::IslandNode)
                    dissolve.push_back(out.islandOf[x]);
            continue;
        }
        const bool u_hub = out.role[u] == NodeRole::Hub;
        const bool v_hub = out.role[v] == NodeRole::Hub;
        if (u_hub && v_hub) {
            if (insertSorted(inter_hub, {std::min(u, v), std::max(u, v)}))
                local_stats.edgesInterHub++;
            else
                local_stats.edgesAbsorbed++;
        } else if (!u_hub && !v_hub) {
            if (out.islandOf[u] == out.islandOf[v]) {
                // Internal island edge: bitmap densifies, coverage
                // intact (bitmaps are built on demand from g).
                local_stats.edgesAbsorbed++;
            } else {
                dissolve.push_back(out.islandOf[u]);
                dissolve.push_back(out.islandOf[v]);
            }
        } else {
            const NodeId island_node = u_hub ? v : u;
            const NodeId hub = u_hub ? u : v;
            if (island_has_hub(out.islandOf[island_node], hub))
                local_stats.edgesAbsorbed++;
            else
                dissolve.push_back(out.islandOf[island_node]);
        }
    }
    sortUnique(dissolve);

    // --- 2. Splice the surviving islands; dissolve the rest. -------
    // Each run of survivors between dissolved ids is one bulk copy
    // into the new table; a survivor's id drops by the number of
    // dissolved ids below it, so islandOf is rewritten only from the
    // first dissolved id on. Slot order is lineage: the survivors
    // keep the old order, and the repair appends after them.
    size_t dissolved_members = 0;
    for (uint32_t id : dissolve)
        dissolved_members += old_islands[id].nodes.size();
    // The repair places at most dirty_count nodes in at most as many
    // islands; their hub lists roughly replace the dissolved ones.
    const size_t dirty_count = demoted.size() + dissolved_members;
    out.islands.reserve(
        old_islands.size() - dissolve.size() + dirty_count,
        old_islands.memberIds().size() - dissolved_members + dirty_count,
        old_islands.hubIds().size());
    if (provenance) {
        provenance->parentOf.clear();
        provenance->parentOf.reserve(old_islands.size());
    }
    std::vector<NodeId> dirty = std::move(demoted);
    dirty.reserve(dirty_count);
    size_t run = 0; // first old id of the current run of survivors
    for (size_t k = 0; k <= dissolve.size(); ++k) {
        const size_t end =
            k < dissolve.size() ? dissolve[k] : old_islands.size();
        // Survivors [run, end) sit above k dissolved ids.
        for (size_t id = run; id < end; ++id) {
            if (k > 0)
                for (NodeId v : old_islands[id].nodes)
                    out.islandOf[v] = static_cast<uint32_t>(id - k);
            if (provenance)
                provenance->parentOf.push_back(static_cast<uint32_t>(id));
        }
        out.islands.appendIslands(old_islands, run, end);
        if (k < dissolve.size())
            for (NodeId v : old_islands[end].nodes) {
                out.role[v] = NodeRole::Unclassified;
                out.islandOf[v] = IslandizationResult::kNoIsland;
                dirty.push_back(v);
            }
        run = end + 1;
    }
    local_stats.islandsDissolved = dissolve.size();

    // --- 3. Local re-islandization over the dirty set. -------------
    if (!dirty.empty()) {
        RepairState st(g, cfg, out, dirty);
        NodeId th = cfg.initialThreshold;
        if (th == 0)
            th = std::max<NodeId>(2, g.maxDegree() / 2);
        uint32_t round = 0;
        std::vector<NodeId> remaining = dirty;
        std::vector<Edge> promoted_edges;
        bool last_round = false;
        while (!remaining.empty() && !last_round) {
            round++;
            if (th <= 1)
                last_round = true;

            // Promote dirty nodes that now qualify as hubs; record
            // their hub-hub edges (their other edges surface through
            // the BFS below or the hub lists of repaired islands).
            std::vector<NodeId> new_hubs;
            for (NodeId v : remaining) {
                if (out.role[v] == NodeRole::Unclassified &&
                    g.degree(v) >= th) {
                    out.role[v] = NodeRole::Hub;
                    out.hubRound[v] = static_cast<uint16_t>(round);
                    out.islandOf[v] = IslandizationResult::kNoIsland;
                    new_hubs.push_back(v);
                }
            }
            for (NodeId h : new_hubs)
                for (NodeId n : g.neighbors(h))
                    if (out.role[n] == NodeRole::Hub)
                        promoted_edges.push_back(
                            {std::min(h, n), std::max(h, n)});

            // Task generation: hubs bordering the dirty region are
            // the old islands' hub lists plus the new hubs; rather
            // than track them, BFS directly from each dirty node that
            // has a hub neighbor (equivalent start set).
            for (NodeId a0 : remaining) {
                if (out.role[a0] != NodeRole::Unclassified)
                    continue;
                if (st.visitedRound[st.slot(a0)] == round)
                    continue;
                NodeId hub0 = a0; // sentinel; replaced below
                bool has_hub_neighbor = false;
                for (NodeId n : g.neighbors(a0)) {
                    if (st.isBorder(n, th)) {
                        hub0 = n;
                        has_hub_neighbor = true;
                        break;
                    }
                }
                if (!has_hub_neighbor && g.degree(a0) > 0)
                    continue; // interior node; a task will reach it
                if (g.degree(a0) == 0) {
                    // Isolated: singleton island (cleanup case).
                    st.commit({&a0, 1}, {}, round);
                    continue;
                }
                st.bfs(hub0, a0, th, round);
            }

            auto next = static_cast<NodeId>(th * cfg.decay);
            th = (next >= th) ? th - 1 : next;
            if (th < 1)
                th = 1;
            std::erase_if(remaining, [&](NodeId v) {
                return out.role[v] != NodeRole::Unclassified;
            });
        }
        // A node the rounds left unclassified drops its slot.
        for (NodeId v : remaining)
            out.islandOf[v] = IslandizationResult::kNoIsland;
        if (!promoted_edges.empty()) {
            sortUnique(promoted_edges);
            std::vector<Edge> merged;
            merged.reserve(inter_hub.size() + promoted_edges.size());
            std::set_union(inter_hub.begin(), inter_hub.end(),
                           promoted_edges.begin(), promoted_edges.end(),
                           std::back_inserter(merged));
            inter_hub = std::move(merged);
        }
        local_stats.nodesReclassified = dirty.size();
        local_stats.edgesScanned = st.edgesScanned;
    }

    if (provenance)
        provenance->parentOf.resize(out.islands.size(),
                                    IslandProvenance::kNone);
    out.stats.islandsFound = out.islands.size();

    if (stats)
        *stats = local_stats;
    return out;
}

} // namespace igcn
