/**
 * @file
 * Evolving-graph inference: the scenario that motivates *runtime*
 * islandization (Section 1).
 *
 * Offline reordering (Rubik, GraphACT, rabbit order) assumes the
 * graph is fixed; real deployments see evolving or inductively
 * generated graphs, where every update would force a reorder on the
 * critical path. This example grows a graph in snapshots (new nodes
 * + edges arriving), and at every snapshot compares:
 *
 *   - I-GCN: islandization re-runs *inside* the accelerator at
 *     microsecond scale, so inference latency is flat;
 *   - offline-reorder + AWB-GCN: the host-side reorder cost recurs
 *     on every snapshot and dwarfs inference.
 */

#include <chrono>
#include <cstdio>

#include "accel/awbgcn_model.hpp"
#include "accel/igcn_model.hpp"
#include "core/incremental.hpp"
#include "core/permute.hpp"
#include "gcn/models.hpp"
#include "graph/generators.hpp"
#include "reorder/reorder.hpp"

using namespace igcn;

namespace {

/** Growing community graph: each snapshot adds islands and hubs. */
CsrGraph
snapshotGraph(NodeId num_nodes, uint64_t seed)
{
    HubIslandParams params;
    params.numNodes = num_nodes;
    params.seed = seed; // same seed: earlier snapshots are prefixes
    return hubAndIslandGraph(params).graph;
}

} // namespace

int
main()
{
    std::printf("snapshot  nodes   edges     I-GCN total(us)  "
                "rabbit reorder(us)  AWB inf(us)  offline total(us)"
                "  overhead vs I-GCN\n");
    std::printf("-----------------------------------------------"
                "-------------------------------------------------"
                "--------------\n");

    HwConfig hw;
    for (int snap = 1; snap <= 6; ++snap) {
        const NodeId nodes = 2000u * snap;
        CsrGraph g = snapshotGraph(nodes, 99);

        DatasetGraph data;
        data.info = {"evolving", "EV", nodes, g.numEdges(), 128, 8,
                     0.2, 1.0};
        data.graph = g;
        data.featureNnz =
            static_cast<EdgeId>(nodes * 128 * 0.2);
        ModelConfig mc;
        mc.name = "GCN";
        mc.layers = {{128, 16}, {16, 8}};

        // I-GCN: islandization happens at runtime inside the device;
        // its cost is already part of the simulated latency.
        RunResult ig = simulateIgcn(data, mc, hw);

        // Offline path: rabbit reorder on the host (measured wall
        // clock), then AWB-GCN inference on the reordered graph.
        ReorderResult rr = reorderGraph(g, ReorderAlgo::Rabbit);
        DatasetGraph reordered = data;
        reordered.graph = g.permuted(rr.perm);
        RunResult awb = simulateAwbGcn(reordered, mc, hw);
        const double offline_total = rr.reorderTimeUs + awb.latencyUs;

        std::printf("%5d  %7u  %7llu  %15.2f  %18.1f  %11.2f  "
                    "%17.1f  %10.1fx\n",
                    snap, nodes,
                    static_cast<unsigned long long>(g.numEdges()),
                    ig.latencyUs, rr.reorderTimeUs, awb.latencyUs,
                    offline_total, offline_total / ig.latencyUs);
    }

    std::printf("\nEvery graph update forces the offline pipeline to "
                "pay the reorder again; I-GCN's runtime islandization "
                "keeps end-to-end latency at inference scale "
                "(the paper's Figure 12 argument, extended to an "
                "evolving stream).\n\n");

    // Incremental repair (library extension): instead of
    // re-islandizing from scratch on every update, dissolve only the
    // invalidated islands and repair locally.
    std::printf("Incremental repair on a stream of edge insertions "
                "(8000-node graph):\n");
    CsrGraph g = snapshotGraph(8000, 7);
    LocatorConfig lcfg;
    IslandizationResult isl = islandize(g, lcfg);
    Rng rng(3);
    for (int batch = 1; batch <= 4; ++batch) {
        std::vector<Edge> added;
        for (int e = 0; e < 16; ++e) {
            NodeId u = static_cast<NodeId>(rng.nextBounded(8000));
            NodeId v = static_cast<NodeId>(rng.nextBounded(8000));
            if (u != v)
                added.emplace_back(u, v);
        }
        std::vector<Edge> all = g.toEdges();
        all.insert(all.end(), added.begin(), added.end());
        g = CsrGraph::fromEdges(8000, all, /*symmetrize=*/true);

        auto t0 = std::chrono::steady_clock::now();
        IncrementalStats stats;
        isl = updateIslandization(g, isl, added, {}, lcfg, &stats);
        auto t1 = std::chrono::steady_clock::now();
        IslandizationResult fresh = islandize(g, lcfg);
        auto t2 = std::chrono::steady_clock::now();
        auto us = [](auto a, auto b) {
            return std::chrono::duration<double, std::micro>(b - a)
                .count();
        };
        std::printf("  batch %d: +%zu edges -> %llu islands "
                    "dissolved, %llu nodes reclassified; repair "
                    "%.0f us vs fresh %.0f us (%.1fx less work); "
                    "coverage outliers: %llu\n",
                    batch, added.size(),
                    static_cast<unsigned long long>(
                        stats.islandsDissolved),
                    static_cast<unsigned long long>(
                        stats.nodesReclassified),
                    us(t0, t1), us(t1, t2), us(t1, t2) / us(t0, t1),
                    static_cast<unsigned long long>(
                        classifyCoverage(g, isl).outliers));
    }
    return 0;
}
