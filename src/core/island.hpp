/**
 * @file
 * Data model of islandization results.
 *
 * Islandization partitions the nodes of a graph into *hubs*
 * (high-degree connectors, detected with a per-round decaying degree
 * threshold) and *islands* (small clusters whose only external
 * connections go through hubs). Every edge of the graph is covered
 * exactly once by either an island's local adjacency bitmap
 * (island-island, island-hub and self connections) or the inter-hub
 * edge map — the invariant the Island Consumer relies on.
 *
 * The islands live in one flat IslandTable (CSR-style member and hub
 * arrays), which the incremental update splices from epoch to epoch.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace igcn {

/** Role assigned to each node by the Island Locator. */
enum class NodeRole : uint8_t { Unclassified = 0, Hub = 1, IslandNode = 2 };

/**
 * One island, as an IslandTable hands it out: views of its member
 * nodes and the hubs that border it, valid while the table is alive
 * and unmodified.
 */
struct Island
{
    /** Member nodes in BFS discovery order (defines local column ids). */
    std::span<const NodeId> nodes;
    /** Bordering hubs, sorted, unique. */
    std::span<const NodeId> hubs;
    /** Locator round (1-based) in which the island was found. */
    int round = 0;
    /** Adjacency-list entries scanned while discovering this island. */
    EdgeId edgesScanned = 0;
};

/**
 * The islands of an islandization, laid out like a CSR matrix: island
 * i's members are memberIds()[memberOffsets()[i] ..
 * memberOffsets()[i + 1]) and its hubs hubIds()[hubOffsets()[i] ..
 * hubOffsets()[i + 1]), next to a round and a scanned-edge count per
 * island. Six flat arrays hold any number of islands, so a copy, a
 * splice (appendIslands over the surviving runs, as the incremental
 * update builds each epoch's table) or a free costs a few bulk
 * operations, not two per island. Indexing and iteration yield
 * Island views.
 */
class IslandTable
{
  public:
    /** Forward iterator yielding Island views by value. */
    class Iterator
    {
      public:
        using value_type = Island;
        using difference_type = std::ptrdiff_t;
        // A forward range for std::ranges; the legacy category is
        // input because dereferencing yields a value, not a reference.
        using iterator_concept = std::forward_iterator_tag;
        using iterator_category = std::input_iterator_tag;

        Iterator() = default;
        Iterator(const IslandTable *t, size_t i) : table(t), index(i) {}

        Island operator*() const { return (*table)[index]; }

        Iterator &
        operator++()
        {
            ++index;
            return *this;
        }

        Iterator
        operator++(int)
        {
            Iterator prev = *this;
            ++index;
            return prev;
        }

        bool operator==(const Iterator &) const = default;

      private:
        const IslandTable *table = nullptr;
        size_t index = 0;
    };

    /** Number of islands. */
    size_t size() const { return rounds.size(); }
    bool empty() const { return rounds.empty(); }

    /** View of island i (no bounds check). */
    Island
    operator[](size_t i) const
    {
        return {{memberIdx.data() + memberPtr[i],
                 memberIdx.data() + memberPtr[i + 1]},
                {hubIdx.data() + hubPtr[i], hubIdx.data() + hubPtr[i + 1]},
                rounds[i],
                scanned[i]};
    }

    Island front() const { return (*this)[0]; }
    Island back() const { return (*this)[size() - 1]; }
    Iterator begin() const { return {this, 0}; }
    Iterator end() const { return {this, size()}; }

    /** Append one island; nodes and hubs must not alias this table. */
    void append(std::span<const NodeId> nodes, std::span<const NodeId> hubs,
                int round, EdgeId edges_scanned = 0);

    /**
     * Append islands [first, last) of src: one bulk copy per array,
     * the offsets shifted by the running size difference. src must
     * not be this table.
     */
    void appendIslands(const IslandTable &src, size_t first, size_t last);

    /** Reserve room for the given island, member and hub-entry totals. */
    void reserve(size_t islands, size_t members, size_t hub_entries);

    /** Member offsets (size() + 1 entries, first 0). */
    const std::vector<EdgeId> &memberOffsets() const { return memberPtr; }
    /** Every island's members, island by island. */
    const std::vector<NodeId> &memberIds() const { return memberIdx; }
    /** Hub-list offsets (size() + 1 entries, first 0). */
    const std::vector<EdgeId> &hubOffsets() const { return hubPtr; }
    /** Every island's hub list, island by island. */
    const std::vector<NodeId> &hubIds() const { return hubIdx; }

    bool operator==(const IslandTable &) const = default;

  private:
    std::vector<EdgeId> memberPtr{0};
    std::vector<NodeId> memberIdx;
    std::vector<EdgeId> hubPtr{0};
    std::vector<NodeId> hubIdx;
    std::vector<int> rounds;
    std::vector<EdgeId> scanned;
};

/** Runtime counters of the Island Locator, used by the timing model. */
struct LocatorStats
{
    uint64_t tasksGenerated = 0;
    uint64_t tasksDroppedStartVisited = 0;
    uint64_t tasksDroppedCollision = 0;
    uint64_t tasksDroppedOversize = 0;
    uint64_t tasksInterHub = 0;
    uint64_t islandsFound = 0;
    /** Nodes inspected by the hub detector, summed over rounds. */
    uint64_t hubDetectChecks = 0;
    /** Adjacency lists fetched from memory (task gen + BFS). */
    uint64_t adjListFetches = 0;
    /** Total neighbor entries scanned by all TP-BFS engines. */
    uint64_t edgesScanned = 0;
    /** Neighbor entries scanned by aborted tasks (wasted work). */
    uint64_t edgesScannedWasted = 0;
};

/** Per-round execution record (drives the locator timing model). */
struct RoundInfo
{
    NodeId threshold = 0;
    /** Nodes swept by the hub detector this round. */
    uint64_t nodesChecked = 0;
    /** Hubs detected this round. */
    uint64_t hubsDetected = 0;
    /** Adjacency entries scanned by TP-BFS this round. */
    uint64_t edgesScanned = 0;
    /** Islands found this round. */
    uint64_t islandsFound = 0;
};

/** Outcome of one TP-BFS task (trace record). */
enum class TaskOutcome : uint8_t
{
    IslandFound = 0,
    DroppedStartVisited = 1,
    DroppedCollision = 2,
    DroppedOversize = 3,
    InterHub = 4,
};

/** One task-level trace entry (recorded when cfg.recordTrace). */
struct TaskTrace
{
    uint16_t round = 0;
    TaskOutcome outcome = TaskOutcome::IslandFound;
    /** Adjacency entries this task scanned. */
    uint32_t edgesScanned = 0;
    /** Degree of the originating hub (task-generation cost). */
    uint32_t hubDegree = 0;
};

/**
 * Full result of islandization over a graph. updateIslandization
 * copies every field but `islands` by name, so a new field must be
 * added to that copy too.
 */
struct IslandizationResult
{
    IslandTable islands;
    /** Per-round execution record. */
    std::vector<RoundInfo> rounds;
    /** Task-level trace (only populated when cfg.recordTrace). */
    std::vector<TaskTrace> taskTrace;
    /** Role per node (never Unclassified after a successful run). */
    std::vector<NodeRole> role;
    /** Island index per node; kNoIsland for hubs. */
    std::vector<uint32_t> islandOf;
    /** Detection round per hub (1-based); 0 for non-hubs. */
    std::vector<uint16_t> hubRound;
    /** Unique undirected hub-hub edges, stored with first <= second. */
    std::vector<Edge> interHubEdges;
    /** Degree threshold used in each round (index 0 = round 1). */
    std::vector<NodeId> thresholds;
    int numRounds = 0;
    LocatorStats stats;

    static constexpr uint32_t kNoIsland = ~uint32_t{0};

    /** Number of hub nodes. */
    NodeId
    numHubs() const
    {
        NodeId n = 0;
        for (NodeRole r : role)
            if (r == NodeRole::Hub)
                n++;
        return n;
    }

    /** Number of island nodes. */
    NodeId
    numIslandNodes() const
    {
        return static_cast<NodeId>(role.size()) - numHubs();
    }
};

} // namespace igcn
