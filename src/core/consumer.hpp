/**
 * @file
 * Functional model of the Island Consumer (Section 3.3).
 *
 * Executes a GraphCONV layer at island granularity, with the same
 * arithmetic the hardware performs: PULL-based combination, per-group
 * pre-aggregation, 1 x k scan windows with per-window add/subtract
 * mode selection, hub partial-result accumulation (the DHUB-PRC), and
 * push-outer-product inter-hub tasks. The output is numerically equal
 * (up to float reassociation) to the reference forward pass — the
 * redundancy removal is lossless, which the test suite verifies.
 *
 * The add/subtract choices depend only on the island structure, never
 * on the features, so the consumer is split into an inspector and an
 * executor: compileIslandPlan() builds every island bitmap, chooses k
 * and records the resulting op streams once; replayIslandPlan() runs
 * them against any feature matrix. One plan serves every layer of a
 * forward pass and every aggregation of a training epoch.
 */

#pragma once

#include <vector>

#include "core/locator.hpp"
#include "core/redundancy.hpp"
#include "gcn/reference.hpp"

namespace igcn {

/**
 * The compiled Island Consumer of one islandization: a replayable op
 * program computing Z = (A [+ I]) * Y. Self-contained (it copies the
 * hub ids and inter-hub edges), so it outlives the islandization it
 * was compiled from.
 *
 * Output row v is ops[opBegin[v], opBegin[v+1]) applied in order to a
 * zeroed row. An island-node row holds its one bitmap row's stream;
 * a hub row concatenates its rows from every bordering island in
 * ascending island order. Each op is a 2-bit kind (kAddRow, kSubRow,
 * kAddPresum) over a 30-bit index: a row of Y, or a presum group.
 * Presum group i is the sum of Y rows
 * groupCols[groupBegin[i], groupBegin[i+1]), in that order; only
 * groups some window consumes in subtract mode are stored. Inter-hub
 * edges and hub self loops are applied after the op streams.
 */
struct IslandPlan
{
    static constexpr uint32_t kAddRow = 0;
    static constexpr uint32_t kSubRow = 1;
    static constexpr uint32_t kAddPresum = 2;
    static constexpr int kKindShift = 30;
    static constexpr uint32_t kIndexMask = (uint32_t{1} << kKindShift) - 1;

    NodeId numNodes = 0;
    RedundancyConfig cfg;
    bool includeSelfLoops = true;

    /** Hub node ids, ascending. */
    std::vector<NodeId> hubIds;
    /** Copy of the islandization's inter-hub edges. */
    std::vector<Edge> interHubEdges;

    /** Op accounting of each island (chosenK set). */
    std::vector<AggOpStats> islandStats;
    /** Sum of islandStats (what one replay adds to its stats). */
    AggOpStats totalStats;

    std::vector<uint32_t> groupBegin{0};
    std::vector<NodeId> groupCols;

    /** Per output row, numNodes + 1 offsets into ops. */
    std::vector<EdgeId> opBegin;
    std::vector<uint32_t> ops;
};

/**
 * Compile the Island Consumer for one islandization: build every
 * island bitmap, choose each island's k under cfg, count its ops and
 * emit its op streams (parallel over islands, bit-identical at any
 * thread count). Runs under KernelRegion "island_plan_compile".
 *
 * @param include_self_loops aggregate with A + I (true) or A.
 * @throws std::logic_error if a neighbor of an island node lies
 *         outside the island and its hubs (coverage invariant), or an
 *         island's hub list names a non-hub node.
 */
IslandPlan compileIslandPlan(const CsrGraph &g,
                             const IslandizationResult &isl,
                             const RedundancyConfig &cfg,
                             bool include_self_loops = true);

/**
 * Replay a compiled plan: Z = (A [+ I]) * Y, bit-identical at any
 * thread count. Adds plan.totalStats to *stats when given.
 */
DenseMatrix replayIslandPlan(const IslandPlan &plan, const DenseMatrix &y,
                             AggOpStats *stats = nullptr);

/**
 * Compute Z = (A + I) * Y using islands, with redundancy removal:
 * compileIslandPlan() followed by one replayIslandPlan().
 *
 * @param g    the graph (binary adjacency, self loops implied)
 * @param isl  islandization of g
 * @param y    dense input rows (already scaled by S in the GCN flow)
 * @param cfg  redundancy-removal configuration
 * @param stats optional accumulated op accounting
 */
DenseMatrix aggregateViaIslands(const CsrGraph &g,
                                const IslandizationResult &isl,
                                const DenseMatrix &y,
                                const RedundancyConfig &cfg,
                                AggOpStats *stats = nullptr,
                                bool include_self_loops = true);

/**
 * Full multi-layer GCN forward pass executed through the Island
 * Consumer: per layer, combination (X W), scaling, island-based
 * aggregation with redundancy removal, scaling, activation. The plan
 * is compiled once and replayed by every layer.
 */
DenseMatrix gcnForwardViaIslands(const CsrGraph &g,
                                 const IslandizationResult &isl,
                                 const Features &x,
                                 const std::vector<DenseMatrix> &weights,
                                 const RedundancyConfig &cfg,
                                 AggOpStats *stats = nullptr);

} // namespace igcn
