#include "core/incremental.hpp"

#include <algorithm>
#include <set>

namespace igcn {

namespace {

/**
 * Local TP-BFS over the dirty region. Mirrors the locator's
 * sequential engine but only traverses unclassified nodes; any node
 * already classified as Hub (old or newly promoted) is a border.
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
                IslandizationResult &result)
        : g(graph), cfg(c), out(result),
          visitedRound(graph.numNodes(), 0),
          visitedTask(graph.numNodes(), 0)
    {}

    bool
    isBorder(NodeId n, NodeId th) const
    {
        return out.role[n] == NodeRole::Hub || g.degree(n) >= th;
    }

    /** @return true if an island was recorded. */
    bool
    bfs(NodeId hub0, NodeId a0, NodeId th, uint32_t round)
    {
        const uint64_t task_id = ++taskCounter;
        std::vector<NodeId> v_local{a0};
        std::vector<NodeId> h_local{hub0};
        visitedTask[a0] = task_id;
        visitedRound[a0] = round;
        size_t query = 0, count = 1;
        while (query != count) {
            NodeId node = v_local[query];
            for (NodeId n : g.neighbors(node)) {
                edgesScanned++;
                if (isBorder(n, th)) {
                    h_local.push_back(n);
                } else if (visitedTask[n] == task_id) {
                    // locally explored
                } else if (visitedRound[n] == round ||
                           out.role[n] == NodeRole::IslandNode) {
                    // Region touches a claimed region or a live
                    // island: cannot be a clean island this round.
                    return false;
                } else {
                    count++;
                    v_local.push_back(n);
                    visitedTask[n] = task_id;
                    visitedRound[n] = round;
                    if (count > cfg.maxIslandSize)
                        return false;
                }
            }
            query++;
        }
        std::sort(h_local.begin(), h_local.end());
        h_local.erase(std::unique(h_local.begin(), h_local.end()),
                      h_local.end());
        Island island;
        island.nodes = std::move(v_local);
        island.hubs = std::move(h_local);
        island.round = static_cast<int>(round);
        const auto id = static_cast<uint32_t>(out.islands.size());
        for (NodeId v : island.nodes) {
            out.role[v] = NodeRole::IslandNode;
            out.islandOf[v] = id;
        }
        out.islands.push_back(std::move(island));
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
    std::set<uint32_t> dirty;
    auto sweep_endpoint = [&](NodeId x) {
        if (result.role[x] == NodeRole::IslandNode) {
            dirty.insert(result.islandOf[x]);
        } else if (result.role[x] == NodeRole::Hub) {
            for (NodeId n : g.neighbors(x))
                if (result.role[n] == NodeRole::IslandNode)
                    dirty.insert(result.islandOf[n]);
        }
    };
    for (const auto &[u, v] : added) {
        sweep_endpoint(u);
        sweep_endpoint(v);
    }
    for (const auto &[u, v] : removed) {
        sweep_endpoint(u);
        sweep_endpoint(v);
    }
    return {dirty.begin(), dirty.end()};
}

IslandizationResult
updateIslandization(const CsrGraph &g,
                    const IslandizationResult &old_result,
                    std::span<const Edge> added,
                    std::span<const Edge> removed,
                    const LocatorConfig &cfg, IncrementalStats *stats,
                    IslandProvenance *provenance)
{
    IslandizationResult out = old_result;
    IncrementalStats local_stats;

    std::set<uint32_t> dissolve;
    std::set<Edge> inter_hub(out.interHubEdges.begin(),
                             out.interHubEdges.end());

    // --- 1a. Classify each removed edge (dissolve-on-remove). ------
    // In a valid old islandization every removed edge was covered as
    // intra-island, island-hub, or hub-hub; the rules below undo
    // exactly that coverage. Endpoints can also be Unclassified when
    // an earlier removal in this span already scheduled their island:
    // they are dirty either way and need no further work.
    std::set<NodeId> demotion_check;
    for (const auto &[u, v] : removed) {
        for (NodeId x : {u, v}) {
            if (out.role[x] == NodeRole::Hub)
                demotion_check.insert(x);
            else if (out.role[x] == NodeRole::IslandNode)
                dissolve.insert(out.islandOf[x]);
        }
        if (out.role[u] == NodeRole::Hub &&
            out.role[v] == NodeRole::Hub) {
            // A failed erase means a duplicate within the span
            // (callers pass deduplicated spans; withRemovedEdges
            // collapses duplicates the same way): not an absorbed
            // edge, so it counts nowhere.
            if (inter_hub.erase({std::min(u, v), std::max(u, v)}))
                local_stats.edgesRemovedInterHub++;
        }
    }

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
        if (out.role[h] != NodeRole::Hub ||
            g.degree(h) >= kDemotionFloor)
            continue;
        out.role[h] = NodeRole::Unclassified;
        out.hubRound[h] = 0;
        demoted.push_back(h);
        local_stats.hubsDemoted++;
        for (NodeId n : g.neighbors(h)) {
            inter_hub.erase({std::min(h, n), std::max(h, n)});
            if (out.role[n] == NodeRole::IslandNode)
                dissolve.insert(out.islandOf[n]);
        }
    }

    // --- 1c. Classify each added edge. -----------------------------
    auto island_has_hub = [&](uint32_t island_id, NodeId hub) {
        const auto &hubs = out.islands[island_id].hubs;
        return std::binary_search(hubs.begin(), hubs.end(), hub);
    };
    for (const auto &[u, v] : added) {
        if (out.role[u] == NodeRole::Unclassified ||
            out.role[v] == NodeRole::Unclassified) {
            // A dirty endpoint (scheduled by a removal above) rides
            // the repair; a live-island partner must dissolve so the
            // dirty set stays closed under adjacency.
            for (NodeId x : {u, v})
                if (out.role[x] == NodeRole::IslandNode)
                    dissolve.insert(out.islandOf[x]);
            continue;
        }
        const bool u_hub = out.role[u] == NodeRole::Hub;
        const bool v_hub = out.role[v] == NodeRole::Hub;
        if (u_hub && v_hub) {
            Edge e{std::min(u, v), std::max(u, v)};
            if (inter_hub.insert(e).second)
                local_stats.edgesInterHub++;
            else
                local_stats.edgesAbsorbed++;
        } else if (!u_hub && !v_hub) {
            if (out.islandOf[u] == out.islandOf[v]) {
                // Internal island edge: bitmap densifies, coverage
                // intact (bitmaps are built on demand from g).
                local_stats.edgesAbsorbed++;
            } else {
                dissolve.insert(out.islandOf[u]);
                dissolve.insert(out.islandOf[v]);
            }
        } else {
            const NodeId island_node = u_hub ? v : u;
            const NodeId hub = u_hub ? u : v;
            if (island_has_hub(out.islandOf[island_node], hub))
                local_stats.edgesAbsorbed++;
            else
                dissolve.insert(out.islandOf[island_node]);
        }
    }
    out.interHubEdges.assign(inter_hub.begin(), inter_hub.end());

    // --- 2. Dissolve invalidated islands. --------------------------
    std::vector<NodeId> dirty = demoted;
    for (uint32_t id : dissolve) {
        for (NodeId v : out.islands[id].nodes) {
            out.role[v] = NodeRole::Unclassified;
            out.islandOf[v] = IslandizationResult::kNoIsland;
            dirty.push_back(v);
        }
        out.islands[id].nodes.clear();
        out.islands[id].hubs.clear();
        local_stats.islandsDissolved++;
    }

    // --- 3. Local re-islandization over the dirty set. -------------
    if (!dirty.empty()) {
        RepairState st(g, cfg, out);
        NodeId th = cfg.initialThreshold;
        if (th == 0)
            th = std::max<NodeId>(2, g.maxDegree() / 2);
        uint32_t round = 0;
        std::vector<NodeId> remaining = dirty;
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
                    new_hubs.push_back(v);
                }
            }
            for (NodeId h : new_hubs)
                for (NodeId n : g.neighbors(h))
                    if (out.role[n] == NodeRole::Hub)
                        inter_hub.insert(
                            {std::min(h, n), std::max(h, n)});

            // Task generation: hubs bordering the dirty region are
            // the old islands' hub lists plus the new hubs; rather
            // than track them, BFS directly from each dirty node that
            // has a hub neighbor (equivalent start set).
            for (NodeId a0 : remaining) {
                if (out.role[a0] != NodeRole::Unclassified)
                    continue;
                if (st.visitedRound[a0] == round)
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
                    Island island;
                    island.nodes = {a0};
                    island.round = static_cast<int>(round);
                    out.role[a0] = NodeRole::IslandNode;
                    out.islandOf[a0] =
                        static_cast<uint32_t>(out.islands.size());
                    out.islands.push_back(std::move(island));
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
        local_stats.nodesReclassified = dirty.size();
        local_stats.edgesScanned = st.edgesScanned;
        out.interHubEdges.assign(inter_hub.begin(), inter_hub.end());
    }

    // --- 4. Compact away dissolved (now empty) islands. ------------
    // Slot order is lineage: a slot below the old island count holds
    // the old result's island of that id, preserved verbatim (the
    // passes above only *clear* invalidated slots and *append*
    // repaired islands); slots at or past it are repair-built. The
    // compaction walk is therefore also the provenance map.
    const size_t old_count = old_result.islands.size();
    if (provenance)
        provenance->parentOf.clear();
    std::vector<Island> compacted;
    compacted.reserve(out.islands.size());
    for (size_t idx = 0; idx < out.islands.size(); ++idx) {
        Island &island = out.islands[idx];
        if (island.nodes.empty())
            continue;
        const auto new_id = static_cast<uint32_t>(compacted.size());
        for (NodeId v : island.nodes)
            out.islandOf[v] = new_id;
        if (provenance)
            provenance->parentOf.push_back(
                idx < old_count ? static_cast<uint32_t>(idx)
                                : IslandProvenance::kNone);
        compacted.push_back(std::move(island));
    }
    out.islands = std::move(compacted);
    out.stats.islandsFound = out.islands.size();

    if (stats)
        *stats = local_stats;
    return out;
}

} // namespace igcn
