/**
 * @file
 * Shared-neighbor redundancy removal (Section 3.3 of the paper).
 *
 * After islandization, the Island Consumer evaluates each island as a
 * small dense sub-graph. During combination it pre-aggregates the
 * combined feature vectors of every k consecutive local columns; during
 * aggregation it slides a 1 x k window over each row of the island's
 * local adjacency bitmap and, per window, either accumulates the
 * connected columns individually (cost = popcount) or takes the
 * pre-aggregated group sum and subtracts the disconnected columns
 * (cost = 1 + zeros), whichever is cheaper. Windows with no non-zeros
 * are skipped entirely.
 */

#pragma once

#include <cstdint>

#include "core/island.hpp"

namespace igcn {

/** Configuration of the redundancy-removal op accounting. */
struct RedundancyConfig
{
    /** Pre-aggregation group width k (>= 2 enables removal). */
    int k = 4;
    /**
     * If true, evaluate k in {2, 4, 8, 16} plus "no removal" per
     * island and keep the cheapest (extension of the paper's
     * "k can be customized"; the ablation bench quantifies it).
     */
    bool adaptiveK = true;
    /**
     * If true, only count pre-aggregation work for column groups
     * actually consumed in subtract mode (idealized); the default
     * charges every group, as the pipelined hardware computes them
     * during combination regardless.
     */
    bool lazyPreagg = false;

    bool operator==(const RedundancyConfig &) const = default;
};

/** Aggregation op accounting for one island (or totals over many). */
struct AggOpStats
{
    /** Vector accumulations without removal (= bitmap non-zeros). */
    uint64_t baselineOps = 0;
    /** Pre-aggregation vector adds. */
    uint64_t preaggOps = 0;
    /** Window adds (add mode) + subtracts and group adds (sub mode). */
    uint64_t windowOps = 0;
    /** Windows skipped because they contain no non-zeros. */
    uint64_t windowsSkipped = 0;
    /** Windows evaluated in subtract mode. */
    uint64_t windowsSubtractMode = 0;
    /** Chosen k (meaningful per island; 0 = removal disabled). */
    int chosenK = 0;

    uint64_t optimizedOps() const { return preaggOps + windowOps; }

    AggOpStats &
    operator+=(const AggOpStats &o)
    {
        baselineOps += o.baselineOps;
        preaggOps += o.preaggOps;
        windowOps += o.windowOps;
        windowsSkipped += o.windowsSkipped;
        windowsSubtractMode += o.windowsSubtractMode;
        return *this;
    }
};

/** Aggregate accounting over a full islandization result. */
struct PruningReport
{
    AggOpStats islandOps;
    /** Inter-hub aggregation ops (no removal applies). */
    uint64_t interHubOps = 0;
    /** Hub self-loop accumulations. */
    uint64_t hubSelfOps = 0;

    uint64_t
    baselineAggOps() const
    {
        return islandOps.baselineOps + interHubOps + hubSelfOps;
    }

    uint64_t
    optimizedAggOps() const
    {
        return islandOps.optimizedOps() + interHubOps + hubSelfOps;
    }

    /** Fraction of aggregation operations pruned (Figure 10, left). */
    double
    aggPruningRate() const
    {
        auto base = baselineAggOps();
        if (base == 0)
            return 0.0;
        return 1.0 - static_cast<double>(optimizedAggOps()) / base;
    }

    /**
     * Fraction of *all* operations pruned given the op count of the
     * combination phase (Figure 10, right).
     */
    double
    overallPruningRate(uint64_t combination_ops,
                       uint64_t agg_channels) const
    {
        double agg_base =
            static_cast<double>(baselineAggOps()) * agg_channels;
        double agg_opt =
            static_cast<double>(optimizedAggOps()) * agg_channels;
        double total = static_cast<double>(combination_ops) + agg_base;
        if (total == 0.0)
            return 0.0;
        return (agg_base - agg_opt) / total;
    }
};

/**
 * Run the op accounting over every island plus the inter-hub edge map:
 * the per-island stats of compileIslandPlan() (core/consumer.hpp),
 * summed. The returned baseline always equals nnz(A) + numNodes (the
 * +I self loops), a property the tests assert.
 */
PruningReport countPruning(const CsrGraph &g,
                           const IslandizationResult &isl,
                           const RedundancyConfig &cfg,
                           bool include_self_loops = true);

} // namespace igcn
