/**
 * @file
 * Graph-state epochs and the micro-batched L-hop inference engine,
 * which aggregates each GCN layer only on the frontier of rows the
 * next layer reads, straight from the epoch's graph and degree
 * scaling: A_hat is never materialized.
 *
 * Concurrency model (the subsystem's torn-read story): everything
 * inference reads — graph, islandization, degree scaling — lives in
 * one immutable GraphState. States are published through the
 * GraphStateHub: a reader acquires a shared_ptr snapshot for the
 * duration of a batch and can never observe a half-applied update;
 * the writer builds the next epoch privately and publishes it
 * atomically. Retired epochs are reclaimed when their last
 * in-flight reader drops its snapshot (shared_ptr refcount as
 * epoch-based quiescence) — no locks are held across kernel
 * execution.
 */

#pragma once

#include <memory>
#include <span>

#include "core/locator.hpp"
#include "gcn/layer.hpp"
#include "gcn/reference.hpp"
#include "runtime/thread_annotations.hpp"
#include "serve/request.hpp"
#include "spmm/dense.hpp"

namespace igcn::serve {

class AggCache;

/** One epoch of the evolving graph. Immutable after publication. */
struct GraphState
{
    uint64_t epoch = 0;
    CsrGraph graph;
    IslandizationResult islands;
    /**
     * degreeScaling(graph). With graph it defines A_hat (entry
     * (u, v) = scale[u] * scale[v]); every batch pulls its frontier
     * rows from the two (pullNormalizedRows).
     */
    std::vector<float> scale;

    // Epoch delta for per-island aggregation caches (AggCache).
    // States built from scratch (makeGraphState) have no parent;
    // the update applier fills the lineage on every published epoch.
    /** True when this epoch was derived from parentEpoch by one
     *  update application. */
    bool hasParent = false;
    uint64_t parentEpoch = 0;
    /**
     * For each island id of this epoch: the parent epoch's island id
     * whose cached layer-1 aggregate is still byte-valid, or
     * AggCache::kNoParent. Already the *intersection* of structural
     * provenance (updateIslandization's verbatim-preserved slots)
     * with the endpoint dirty sweep (dirtyIslandEndpointSweep) — a
     * surviving id here means no applied edge changed any member
     * row's normalized-adjacency entries or inputs.
     */
    std::vector<uint32_t> aggProvenance;
};

/** Islandize g and precompute the epoch's derived state. */
std::shared_ptr<const GraphState>
makeGraphState(CsrGraph g, const LocatorConfig &cfg, uint64_t epoch = 0);

/** Epoch publication point (see file comment). */
class GraphStateHub
{
  public:
    explicit GraphStateHub(std::shared_ptr<const GraphState> initial);

    /** Snapshot of the current epoch; hold for the whole batch. */
    std::shared_ptr<const GraphState> acquire() const;

    /** Swap in the next epoch (must advance GraphState::epoch). */
    void publish(std::shared_ptr<const GraphState> next);

    uint64_t currentEpoch() const;

  private:
    mutable Mutex mutex;
    std::shared_ptr<const GraphState> current IGCN_GUARDED_BY(mutex);
};

/** Execution record of one inference micro-batch. */
struct BatchExecInfo
{
    uint64_t epoch = 0;
    uint32_t targets = 0;
    uint32_t uniqueTargets = 0;
    /** Work of the frontier BFS: the nodes it reached (the deepest
     *  frontier) plus the adjacency entries it scanned. */
    uint64_t bfsWork = 0;
    /**
     * Per layer, first layer at index 0: the A_hat rows the layer
     * aggregated and the A_hat entries (self loops included) those
     * rows read. Rows substituted from the aggregation cache are not
     * aggregated, so they count in neither.
     */
    std::vector<uint32_t> layerRows;
    std::vector<uint64_t> layerEntries;

    /** Sum of layerRows. */
    uint64_t aggregatedRows() const;
    /** Sum of layerEntries. */
    uint64_t aggregatedEntries() const;

    // Aggregation-cache accounting (all zero when no cache attached).
    /** Islands whose members are all first-layer rows (consulted). */
    uint32_t cacheEligible = 0;
    /** Of those, islands served from the cache. */
    uint32_t cacheHits = 0;
    /** Entries filled from this batch's computed rows. */
    uint32_t cacheFills = 0;
    /** First-layer rows substituted from the cache. */
    uint32_t cacheRows = 0;
    /** A_hat entries of those rows, which the first layer's pull
     *  skipped (already excluded from layerEntries[0]). */
    uint64_t cacheSkippedEdges = 0;
};

/**
 * Micro-batched L-hop inference over the current epoch.
 *
 * Combination runs first, as in I-GCN: features and weights never
 * change (updates only edit edges), so the engine computes the
 * layer-0 product X W0 once, at construction, and keeps that
 * N x hidden table instead of X.
 *
 * A batch then runs layer by layer on nested frontiers
 * (lHopFrontiers, one BFS): with L layers, layer l (1-based) is
 * needed only within L - l hops of the targets, so it aggregates
 * exactly the rows of frontier L - l. Layer 1 pulls those rows of
 * A_hat against the global X W0 table, with no gather and no
 * sub-CSR; each later layer applies ReLU and gemm on the previous
 * frontier's rows and pulls its own frontier through a column map
 * into them. Every pull (pullNormalizedRows) forms each A_hat entry
 * as the product scale[u] * scale[v] from the epoch's graph and
 * scaling, so an update epoch publishes no A_hat. Only the targets'
 * rows exist at the end.
 *
 * Bit-identity: every row of frontier k has all its neighbours in
 * frontier k + 1, so each pulled row takes the same A_hat entries —
 * the same float products, in the same order, from the same global
 * scaling — as the whole-graph pass over the stored A_hat;
 * pullNormalizedRows and gemm compute each output row on its own.
 * Served logits are therefore bit-identical to whole-graph reference
 * inference per target, for dense and CSR (Features::sparse)
 * features alike, at any IGCN_THREADS.
 *
 * runBatch is const and thread-safe: concurrent batches and a
 * concurrent update writer interact only through the hub.
 */
class InferenceEngine
{
  public:
    /**
     * @throws std::invalid_argument on a null hub, no layers, feature
     * rows != graph nodes, or a weight chain that does not fit the
     * features (W0 rows != feature columns, or W[l] rows !=
     * W[l-1] columns).
     */
    InferenceEngine(std::shared_ptr<GraphStateHub> hub,
                    const Features &features,
                    std::vector<DenseMatrix> weights);

    int numLayers() const { return static_cast<int>(weights.size()); }
    size_t numClasses() const { return weights.back().cols(); }

    /**
     * Attach (or detach, nullptr) a per-island layer-1 aggregation
     * cache. With a cache attached the engine substitutes cached
     * rows for islands whose members are all first-layer rows of a
     * batch and fills misses from the rows it computes anyway —
     * logits are bit-identical to the cacheless engine by
     * construction (see agg_cache.hpp). Not owned; must outlive the
     * engine's batches.
     */
    void attachAggCache(AggCache *cache) { aggCache = cache; }

    /** Serve one inference micro-batch against the current epoch. */
    std::vector<InferenceResult>
    runBatch(std::span<const Request> batch,
             BatchExecInfo *info = nullptr) const;

  private:
    /**
     * Layer 1 on `rows` (ascending global ids; pos[v] = position of
     * v in rows, kAbsent elsewhere): A_hat rows, pulled from the
     * graph and scaling, against X W0, with cached islands
     * substituted when a cache is attached.
     */
    DenseMatrix firstLayer(const GraphState &state,
                           const std::vector<NodeId> &rows,
                           const std::vector<NodeId> &pos,
                           BatchExecInfo &info) const;

    std::shared_ptr<GraphStateHub> hub;
    std::vector<DenseMatrix> weights;
    /** X W0 over every node (row v = node v), computed once. */
    DenseMatrix xw0;
    AggCache *aggCache = nullptr;
};

} // namespace igcn::serve
