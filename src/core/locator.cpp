#include "core/locator.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <stdexcept>
#include <utility>

namespace igcn {

namespace {

/** Mutable state of one islandization run. */
struct LocatorState
{
    const CsrGraph &g;
    const LocatorConfig &cfg;
    IslandizationResult out;

    /** Round id in which a node was globally visited (0 = never). */
    std::vector<uint32_t> visitedGlobalRound;
    /** Task id that locally visited a node (0 = never). */
    std::vector<uint64_t> visitedLocalTask;
    uint64_t taskCounter = 0;
    /**
     * Most nodes one task can hold: at most cmax, and never more than
     * the graph has, +1 for the push that triggers break condition B.
     * Task buffers reserve this up front, so the scan loop never
     * reallocates; capping by the node count keeps an unbounded cmax
     * from reserving 16 GiB.
     */
    const size_t taskCapacity;
    /** Members (BFS order) and border hubs of the sequential task
     *  being explored; reused across tasks. */
    std::vector<NodeId> taskNodes;
    std::vector<NodeId> taskHubs;

    explicit LocatorState(const CsrGraph &graph, const LocatorConfig &c)
        : g(graph), cfg(c),
          taskCapacity(
              static_cast<size_t>(std::min(c.maxIslandSize,
                                           graph.numNodes())) + 1)
    {
        const NodeId n = g.numNodes();
        out.role.assign(n, NodeRole::Unclassified);
        out.islandOf.assign(n, IslandizationResult::kNoIsland);
        out.hubRound.assign(n, 0);
        visitedGlobalRound.assign(n, 0);
        visitedLocalTask.assign(n, 0);
        taskNodes.reserve(taskCapacity);
    }
};

/**
 * TP-BFS from start node a0 (Algorithm 4) against the run's visited
 * marks. Collects the task's members and border hubs in st.taskNodes
 * and st.taskHubs, charges its adjacency fetches to the stats, adds
 * its scanned entries to `scanned`, and returns how it ended.
 */
TaskOutcome
exploreTask(LocatorState &st, NodeId hub0, NodeId a0, NodeId th,
            uint32_t round, EdgeId &scanned)
{
    const CsrGraph &g = st.g;
    if (g.degree(a0) >= th) {
        // a0 is itself a hub: an inter-hub connection, not a task.
        return TaskOutcome::InterHub;
    }
    if (st.out.role[a0] == NodeRole::IslandNode ||
        st.visitedGlobalRound[a0] == round)
        return TaskOutcome::DroppedStartVisited;

    const uint64_t task_id = ++st.taskCounter;
    std::vector<NodeId> &nodes = st.taskNodes;
    std::vector<NodeId> &hubs = st.taskHubs;
    nodes.assign(1, a0);
    hubs.assign(1, hub0);
    st.visitedLocalTask[a0] = task_id;
    st.visitedGlobalRound[a0] = round;

    for (size_t query = 0; query != nodes.size(); ++query) {
        st.out.stats.adjListFetches++;
        for (NodeId n : g.neighbors(nodes[query])) {
            scanned++;
            if (g.degree(n) >= th) {
                // Hub (this round's threshold, or an earlier round's
                // higher one): border node, never traversed through.
                hubs.push_back(n);
            } else if (st.visitedLocalTask[n] == task_id) {
                // Already explored by this task: skip.
            } else if (st.visitedGlobalRound[n] == round) {
                // Claimed by an earlier task this round (break cond.
                // A): drop. The claiming region is finished, so the
                // marks are kept (as in break condition B) and sibling
                // tasks drop at start instead of rescanning. The
                // parallel-engine mode implements the paper's
                // in-flight rollback verbatim.
                return TaskOutcome::DroppedCollision;
            } else {
                nodes.push_back(n);
                st.visitedLocalTask[n] = task_id;
                st.visitedGlobalRound[n] = round;
                if (nodes.size() > st.cfg.maxIslandSize) {
                    // Break condition B: too large to be an island at
                    // this threshold. Marks are kept so sibling tasks
                    // don't rescan the region this round; the nodes
                    // stay unclassified and are retried next round at
                    // a lower threshold.
                    return TaskOutcome::DroppedOversize;
                }
            }
        }
    }

    // Break condition C: query caught up with count -> island found.
    std::sort(hubs.begin(), hubs.end());
    hubs.erase(std::unique(hubs.begin(), hubs.end()), hubs.end());
    return TaskOutcome::IslandFound;
}

/**
 * Run one TP-BFS task and commit its outcome — statistics, trace
 * entry and, on break condition C, the island — before the next task
 * starts.
 */
void
runTask(LocatorState &st, NodeId hub, NodeId a0, NodeId th,
        uint32_t round,
        std::vector<std::pair<NodeId, NodeId>> &inter_hub)
{
    auto &out = st.out;
    out.stats.tasksGenerated++;
    EdgeId scanned = 0;
    const TaskOutcome outcome =
        exploreTask(st, hub, a0, th, round, scanned);
    out.stats.edgesScanned += scanned;

    switch (outcome) {
    case TaskOutcome::InterHub:
        out.stats.tasksInterHub++;
        inter_hub.emplace_back(std::min(hub, a0), std::max(hub, a0));
        break;
    case TaskOutcome::DroppedStartVisited:
        out.stats.tasksDroppedStartVisited++;
        break;
    case TaskOutcome::DroppedCollision:
        out.stats.tasksDroppedCollision++;
        out.stats.edgesScannedWasted += scanned;
        break;
    case TaskOutcome::DroppedOversize:
        out.stats.tasksDroppedOversize++;
        out.stats.edgesScannedWasted += scanned;
        break;
    case TaskOutcome::IslandFound: {
        const auto id = static_cast<uint32_t>(out.islands.size());
        for (NodeId v : st.taskNodes) {
            out.role[v] = NodeRole::IslandNode;
            out.islandOf[v] = id;
        }
        out.islands.append(st.taskNodes, st.taskHubs,
                           static_cast<int>(round), scanned);
        out.stats.islandsFound++;
        break;
    }
    }

    if (st.cfg.recordTrace) {
        TaskTrace trace;
        trace.round = static_cast<uint16_t>(round);
        trace.outcome = outcome;
        trace.edgesScanned = static_cast<uint32_t>(scanned);
        trace.hubDegree = st.g.degree(hub);
        out.taskTrace.push_back(trace);
    }
}

/** In-flight state of one TP-BFS engine (parallel mode). */
struct BfsEngine
{
    bool busy = false;
    NodeId hub0 = 0;
    std::vector<NodeId> vLocal;
    std::vector<NodeId> hLocal;
    size_t query = 0;
    size_t count = 0;
    uint64_t taskId = 0;
    EdgeId edgesScanned = 0;
};

/** Record the island an engine completed (break condition C). */
void
finishIsland(LocatorState &st, BfsEngine &e, uint32_t round)
{
    auto &out = st.out;
    std::sort(e.hLocal.begin(), e.hLocal.end());
    e.hLocal.erase(std::unique(e.hLocal.begin(), e.hLocal.end()),
                   e.hLocal.end());
    const auto island_id = static_cast<uint32_t>(out.islands.size());
    for (NodeId v : e.vLocal) {
        out.role[v] = NodeRole::IslandNode;
        out.islandOf[v] = island_id;
    }
    out.islands.append(e.vLocal, e.hLocal, static_cast<int>(round),
                       e.edgesScanned);
    out.stats.islandsFound++;
    out.stats.edgesScanned += e.edgesScanned;
    e.busy = false;
}

/**
 * Advance one engine by one node expansion (the adjacency list of
 * the node under the query pointer). Mirrors exploreTask()'s per-neighbor
 * logic; step granularity is what makes engine interleaving visible.
 */
void
stepEngine(LocatorState &st, BfsEngine &e, NodeId th, uint32_t round)
{
    auto &out = st.out;
    if (e.query == e.count) {
        finishIsland(st, e, round);
        return;
    }
    NodeId node = e.vLocal[e.query];
    out.stats.adjListFetches++;
    for (NodeId n : st.g.neighbors(node)) {
        e.edgesScanned++;
        if (st.g.degree(n) >= th) {
            e.hLocal.push_back(n);
        } else if (st.visitedLocalTask[n] == e.taskId) {
            // already explored by this engine
        } else if (st.visitedGlobalRound[n] == round) {
            // Break condition A: claimed by a concurrent engine.
            for (NodeId v : e.vLocal)
                st.visitedGlobalRound[v] = 0;
            out.stats.tasksDroppedCollision++;
            out.stats.edgesScanned += e.edgesScanned;
            out.stats.edgesScannedWasted += e.edgesScanned;
            e.busy = false;
            return;
        } else {
            e.count++;
            e.vLocal.push_back(n);
            st.visitedLocalTask[n] = e.taskId;
            st.visitedGlobalRound[n] = round;
            if (e.count > st.cfg.maxIslandSize) {
                // Break condition B: oversize; keep global marks.
                out.stats.tasksDroppedOversize++;
                out.stats.edgesScanned += e.edgesScanned;
                out.stats.edgesScannedWasted += e.edgesScanned;
                e.busy = false;
                return;
            }
        }
    }
    e.query++;
    if (e.query == e.count)
        finishIsland(st, e, round);
}

/**
 * Run the round's task queue on P2 concurrent engines, round-robin:
 * each iteration every engine either starts a task or expands one
 * node. This is the hardware's actual execution model; the set of
 * islands found can differ from the sequential interleaving (both
 * satisfy the coverage postconditions).
 */
void
runParallelTpBfs(LocatorState &st,
                 std::deque<std::pair<NodeId, NodeId>> &tasks,
                 NodeId th, uint32_t round,
                 std::vector<std::pair<NodeId, NodeId>> &inter_hub)
{
    auto &out = st.out;
    std::vector<BfsEngine> engines(
        std::max(1, st.cfg.p2));
    bool any_busy = true;
    while (any_busy || !tasks.empty()) {
        any_busy = false;
        for (BfsEngine &e : engines) {
            if (!e.busy) {
                // Pop tasks until one is viable (checks happen at pop
                // time, as in the hardware's task queues).
                while (!tasks.empty()) {
                    auto [hub, a0] = tasks.front();
                    tasks.pop_front();
                    out.stats.tasksGenerated++;
                    if (st.g.degree(a0) >= th) {
                        out.stats.tasksInterHub++;
                        inter_hub.emplace_back(std::min(hub, a0),
                                               std::max(hub, a0));
                        continue;
                    }
                    if (out.role[a0] == NodeRole::IslandNode ||
                        st.visitedGlobalRound[a0] == round) {
                        out.stats.tasksDroppedStartVisited++;
                        continue;
                    }
                    e.busy = true;
                    e.hub0 = hub;
                    e.vLocal.clear();
                    e.hLocal.clear();
                    e.vLocal.reserve(st.taskCapacity);
                    e.hLocal.reserve(8);
                    e.vLocal.push_back(a0);
                    e.hLocal.push_back(hub);
                    e.query = 0;
                    e.count = 1;
                    e.edgesScanned = 0;
                    e.taskId = ++st.taskCounter;
                    st.visitedLocalTask[a0] = e.taskId;
                    st.visitedGlobalRound[a0] = round;
                    break;
                }
            }
            if (e.busy) {
                stepEngine(st, e, th, round);
                any_busy = any_busy || e.busy;
            }
        }
    }
}

} // namespace

IslandizationResult
islandize(const CsrGraph &g, const LocatorConfig &cfg)
{
    if (cfg.maxIslandSize < 1)
        throw std::invalid_argument("maxIslandSize must be >= 1");
    if (cfg.decay <= 0.0 || cfg.decay >= 1.0)
        throw std::invalid_argument("decay must be in (0, 1)");

    LocatorState st(g, cfg);
    auto &out = st.out;
    const NodeId n = g.numNodes();

    NodeId th = cfg.initialThreshold;
    if (th == 0)
        th = std::max<NodeId>(2, g.maxDegree() / 2);

    // Node Degree Buffer contents: nodes not yet classified. Rebuilt
    // (compacted) each round, mirroring the loop-back FIFOs.
    std::vector<NodeId> node_list(n);
    for (NodeId v = 0; v < n; ++v)
        node_list[v] = v;

    std::vector<std::pair<NodeId, NodeId>> inter_hub_raw;
    uint32_t round = 0;
    bool last_round_done = false;

    while (!node_list.empty() && !last_round_done) {
        round++;
        if (th <= 1)
            last_round_done = true;
        out.thresholds.push_back(th);
        RoundInfo round_info;
        round_info.threshold = th;
        round_info.nodesChecked = node_list.size();
        const uint64_t edges_before = out.stats.edgesScanned;
        const uint64_t islands_before = out.stats.islandsFound;

        // --- Th1: detect_hub (Algorithm 2) -------------------------
        // node_list holds only unclassified nodes (it is compacted at
        // the end of every round): each becomes a hub now or stays.
        out.stats.hubDetectChecks += node_list.size();
        std::vector<NodeId> hub_buffer;
        size_t kept = 0;
        for (size_t i = 0; i < node_list.size(); ++i) {
            const NodeId v = node_list[i];
            if (g.degree(v) >= th) {
                out.role[v] = NodeRole::Hub;
                out.hubRound[v] = static_cast<uint16_t>(round);
                hub_buffer.push_back(v);
            } else {
                node_list[kept++] = v;
            }
        }
        node_list.resize(kept);

        // --- Th2 + Th3: task_assign (Alg. 3) + TP-BFS (Alg. 4) ----
        if (cfg.parallelEngines) {
            // P2 concurrent engines, round-robin interleaved.
            std::deque<std::pair<NodeId, NodeId>> tasks;
            for (NodeId hub : hub_buffer) {
                out.stats.adjListFetches++;
                for (NodeId a0 : g.neighbors(hub))
                    tasks.emplace_back(hub, a0);
            }
            runParallelTpBfs(st, tasks, th, round, inter_hub_raw);
        } else {
            // One task at a time in hub order, then neighbor order,
            // each committed before the next starts. A task explores
            // at most cmax nodes, too little work to pay for a thread.
            for (NodeId hub : hub_buffer) {
                out.stats.adjListFetches++;
                for (NodeId a0 : g.neighbors(hub))
                    runTask(st, hub, a0, th, round, inter_hub_raw);
            }
        }

        // --- End-of-round threshold decay (Algorithm 1 line 10) ----
        auto next = static_cast<NodeId>(th * cfg.decay);
        th = (next >= th) ? th - 1 : next;
        if (th < 1)
            th = 1;

        // Compact away classified nodes so the emptiness check below
        // reflects the true N.
        std::erase_if(node_list, [&](NodeId v) {
            return out.role[v] != NodeRole::Unclassified;
        });

        round_info.hubsDetected = hub_buffer.size();
        round_info.edgesScanned = out.stats.edgesScanned - edges_before;
        round_info.islandsFound =
            out.stats.islandsFound - islands_before;
        out.rounds.push_back(round_info);
    }

    // Degree-0 nodes are never anyone's neighbor and never reach the
    // hub threshold: close them out as singleton islands.
    if (!node_list.empty()) {
        round++;
        out.thresholds.push_back(0);
        RoundInfo cleanup;
        cleanup.threshold = 0;
        cleanup.nodesChecked = node_list.size();
        cleanup.islandsFound = node_list.size();
        out.rounds.push_back(cleanup);
        for (NodeId v : node_list) {
            assert(g.degree(v) == 0);
            out.role[v] = NodeRole::IslandNode;
            out.islandOf[v] = static_cast<uint32_t>(out.islands.size());
            out.islands.append({&v, 1}, {}, static_cast<int>(round));
            out.stats.islandsFound++;
        }
    }

    std::sort(inter_hub_raw.begin(), inter_hub_raw.end());
    inter_hub_raw.erase(
        std::unique(inter_hub_raw.begin(), inter_hub_raw.end()),
        inter_hub_raw.end());
    out.interHubEdges.assign(inter_hub_raw.begin(), inter_hub_raw.end());
    out.numRounds = static_cast<int>(round);
    return out;
}

} // namespace igcn
