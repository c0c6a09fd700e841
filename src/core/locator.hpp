/**
 * @file
 * The Island Locator: Algorithms 1-4 of the I-GCN paper.
 *
 * Functional (architecture-independent) implementation of runtime
 * islandization. The locator proceeds in rounds; each round detects
 * hubs with the current degree threshold (Algorithm 2), turns each
 * detected hub's neighbors into BFS start tasks (Algorithm 3), and
 * runs Threshold-based Parallel BFS from those starting points
 * (Algorithm 4) with the paper's three task-break conditions:
 *
 *  (A) the BFS reaches a node already claimed by another engine in
 *      this round (global-visited collision) -> drop task, roll back;
 *  (B) the local visited count exceeds cmax -> drop task, keep marks;
 *  (C) query pointer catches up with the visit counter -> island found.
 *
 * The sequential software execution is observationally equivalent to
 * the paper's concurrent hardware: within a round hub-ness is decided
 * purely by the (fixed) threshold, so task interleaving only affects
 * *which* engine claims a region, not the set of islands, and
 * sequential task order is one valid interleaving.
 *
 * The default mode runs every task to completion, in hub order then
 * neighbor order, and commits it before the next starts. It makes no
 * thread-pool call: a task explores at most cmax nodes, too little
 * work to pay for a thread. Its result — partition, island ids, BFS
 * node order, every statistic and trace entry — is therefore the same
 * at every IGCN_THREADS, which the cycle-level accelerator models
 * that consume these stats rely on.
 */

#pragma once

#include "core/island.hpp"

namespace igcn {

/** Tunable parameters of the Island Locator (Algorithm 1 inputs). */
struct LocatorConfig
{
    /** Initial hub threshold TH0. 0 selects max(2, maxDegree/2). */
    NodeId initialThreshold = 0;
    /** Multiplicative threshold decay per round (Decay function). */
    double decay = 0.6;
    /** Maximum number of nodes an island may contain (cmax). */
    NodeId maxIslandSize = 64;
    /** Hub-detector parallel lanes P1 (timing model only). */
    int p1 = 64;
    /** Number of TP-BFS engines P2 (timing model only). */
    int p2 = 64;
    /** Adjacency entries an engine consumes per cycle (timing model
     *  only): lists arrive as 128-bit bursts of four 32-bit ids. */
    int bfsScanWidth = 4;
    /**
     * Execute TP-BFS with P2 concurrent engine states advancing in
     * round-robin interleaving, as the hardware does (Algorithm 1's
     * Th3 across P2 engines). The default sequential mode processes
     * one task at a time — a valid interleaving with fewer
     * mid-exploration collisions. Both modes satisfy the same
     * postconditions; the parallel mode exercises break condition A
     * (global-visited collision with an *in-flight* engine) the way
     * concurrent hardware does.
     */
    bool parallelEngines = false;
    /**
     * Record a per-task trace (round, outcome, edges scanned) into
     * IslandizationResult::taskTrace, consumed by the cycle-level
     * locator pipeline model. Off by default: traces are large on
     * Reddit-scale graphs.
     */
    bool recordTrace = false;
};

/**
 * Run islandization over an undirected graph.
 *
 * Postconditions (checked by the test suite):
 *  - every node is classified as Hub or IslandNode;
 *  - islands have between 1 and cmax member nodes;
 *  - every edge is covered exactly once: island-island edges inside
 *    one island, island-hub edges in that island's hub list, hub-hub
 *    edges in interHubEdges.
 */
IslandizationResult islandize(const CsrGraph &g,
                              const LocatorConfig &cfg = {});

} // namespace igcn
