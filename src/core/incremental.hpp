/**
 * @file
 * Incremental islandization for evolving graphs (extension).
 *
 * The paper motivates runtime restructuring with evolving and
 * inductive graphs (Section 1). Full re-islandization is already
 * microsecond-scale, but most edge updates touch a tiny part of the
 * structure: an added edge *inside* one island or between two hubs
 * leaves every invariant intact, and only cross-island /
 * island-to-new-hub edges force work. This module dissolves exactly
 * the invalidated islands and re-runs threshold-decayed TP-BFS over
 * the dirty region only, preserving the full coverage invariant
 * (tests verify the result is indistinguishable from a fresh run's
 * postconditions).
 *
 * Edge *deletions* use the dual, dissolve-on-remove rule:
 *  - intra-island removal dissolves the island (it may have been
 *    internally disconnected, so membership must be re-derived);
 *  - island-hub removal dissolves the island (its hub list entry may
 *    now be stale);
 *  - hub-hub removal erases the inter-hub map entry;
 *  - a hub whose degree drops below the demotion floor (2) is
 *    demoted to the dirty set and every island listing it is
 *    dissolved, so no hub list ever names a non-hub.
 * The dirty set stays *closed* — every neighbor of a dirty node is a
 * hub or itself dirty — which is the invariant that lets the local
 * TP-BFS repair treat hubs as the only borders. The repair itself is
 * shared between additions and removals, and the whole update path
 * is sequential and deterministic: the result (partition, island BFS
 * order, stats) is bit-identical at every IGCN_THREADS setting and
 * across reruns, the contract tests/test_fuzz_incremental.cpp locks
 * in differentially against from-scratch islandize, and pins with a
 * golden fingerprint.
 *
 * Cost is O(touched) apart from a few flat copies: the new island
 * table is spliced from the old one (one bulk copy per run of
 * surviving islands, repaired islands appended), islandOf is
 * rewritten only for islands whose id shifts, the sorted inter-hub
 * list is edited in place, and the repair's visit marks are sized to
 * the dirty region. Copying role/islandOf/hubRound is the only
 * per-node work left.
 */

#pragma once

#include <span>

#include "core/locator.hpp"

namespace igcn {

/** Statistics of one incremental update. */
struct IncrementalStats
{
    /** Edges whose coverage was already valid (no work). */
    uint64_t edgesAbsorbed = 0;
    /** Newly recorded inter-hub edges. */
    uint64_t edgesInterHub = 0;
    /** Islands dissolved by the update. */
    uint64_t islandsDissolved = 0;
    /** Hubs demoted because removals dropped their degree below the
     *  demotion floor. */
    uint64_t hubsDemoted = 0;
    /** Removed inter-hub edges erased from the inter-hub map. */
    uint64_t edgesRemovedInterHub = 0;
    /** Nodes re-classified by the local re-islandization. */
    uint64_t nodesReclassified = 0;
    /** Adjacency entries scanned while repairing. */
    uint64_t edgesScanned = 0;

    bool operator==(const IncrementalStats &) const = default;
};

/**
 * Island provenance of one incremental update: for each island id of
 * the updated result, the old result's id of the verbatim-preserved
 * island it came from, or kNone for islands (re)built by the repair.
 *
 * "Verbatim" is structural: the island object (member BFS order, hub
 * list, round) is byte-identical to the parent's — the preservation
 * guarantee updateIslandization documents. It says nothing about the
 * island's *aggregate* staying numerically valid: an absorbed
 * intra-island edge or a degree change of a listed hub alters the
 * normalized-adjacency values inside a structurally untouched island.
 * Consumers caching per-island numeric results must intersect this
 * map with dirtyIslandEndpointSweep() (serve::UpdateApplier does).
 */
struct IslandProvenance
{
    static constexpr uint32_t kNone = ~uint32_t{0};
    /** Indexed by new island id; size == result.islands.size(). */
    std::vector<uint32_t> parentOf;
};

/**
 * The island ids (of `result`) whose per-island aggregation results
 * are invalidated by the applied edges, beyond the islands the update
 * dissolved outright. Degree-normalized aggregation (DESIGN.md) makes
 * every endpoint x of an applied edge change its scale s[x] =
 * 1/sqrt(deg(x)+1), which changes the normalized-adjacency entry of
 * *every* row containing x:
 *  - island-node endpoint: its neighbors lie inside its own island or
 *    in that island's hub list (the coverage invariant), so only its
 *    own island's member rows change -> dirty islandOf[x];
 *  - hub endpoint: its neighbors span islands, so every island-node
 *    neighbor n in the *new* graph has a changed row -> dirty
 *    islandOf[n]. (A partner detached by a removal is handled by the
 *    dissolve-on-remove rules, not this sweep.)
 *
 * Pure function of (new_graph, result, applied edges); returns sorted
 * unique ids. serve::UpdateApplier subtracts these from the published
 * provenance; the incremental fuzz tests replay the same function as
 * the cache-invalidation oracle.
 */
std::vector<uint32_t>
dirtyIslandEndpointSweep(const CsrGraph &new_graph,
                         const IslandizationResult &result,
                         std::span<const Edge> added,
                         std::span<const Edge> removed);

/**
 * Update an islandization after edges were added to and/or removed
 * from the graph.
 *
 * @param new_graph  the graph *after* the update (must contain every
 *                   edge in added and none in removed, both
 *                   directions; added and removed must be disjoint —
 *                   net-effect coalescing is the caller's job, see
 *                   serve::UpdateApplier)
 * @param old_result islandization of the pre-update graph (removed
 *                   edges are classified against its roles)
 * @param added      the added undirected edges (u, v)
 * @param removed    the removed undirected edges (u, v)
 * @param cfg        locator parameters for the local repair
 * @param stats      optional update statistics
 * @param provenance optional island lineage (see IslandProvenance)
 * @return a valid islandization of new_graph; islands not incident
 *         to the update are preserved verbatim.
 */
IslandizationResult
updateIslandization(const CsrGraph &new_graph,
                    const IslandizationResult &old_result,
                    std::span<const Edge> added,
                    std::span<const Edge> removed,
                    const LocatorConfig &cfg = {},
                    IncrementalStats *stats = nullptr,
                    IslandProvenance *provenance = nullptr);

} // namespace igcn
