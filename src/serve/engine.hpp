/**
 * @file
 * Graph-state epochs and the micro-batched L-hop inference engine.
 *
 * Concurrency model (the subsystem's torn-read story): everything
 * inference reads — graph, islandization, degree scaling, the
 * whole-graph A_hat — lives in one immutable GraphState. States are
 * published through the GraphStateHub: a reader acquires a
 * shared_ptr snapshot for the duration of a batch and can never
 * observe a half-applied update; the writer builds the next epoch
 * privately and publishes it atomically. Retired epochs are
 * reclaimed when their last in-flight reader drops its snapshot
 * (shared_ptr refcount as epoch-based quiescence) — no locks are
 * held across kernel execution.
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
    /** degreeScaling(graph); gathered per subgraph by the engine. */
    std::vector<float> scale;
    /** Whole-graph A_hat for the large-batch fallback path. */
    CsrMatrix normAdj;

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
    /** Receptive-field size (0 on the whole-graph path). */
    uint32_t subNodes = 0;
    uint64_t subEdges = 0;
    /** True when the batch fell back to a whole-graph pass. */
    bool wholeGraph = false;

    // Aggregation-cache accounting (all zero when no cache attached).
    /** Islands fully interior to the receptive field (consultable). */
    uint32_t cacheEligible = 0;
    /** Of those, islands served from the cache. */
    uint32_t cacheHits = 0;
    /** Entries filled from this batch's computed rows. */
    uint32_t cacheFills = 0;
    /** Layer-1 rows substituted from the cache. */
    uint32_t cacheRows = 0;
    /** Adjacency entries (self loops excluded) the masked layer-1
     *  spmm skipped thanks to those rows. */
    uint64_t cacheSkippedEdges = 0;
};

/**
 * Micro-batched L-hop inference over the current epoch.
 *
 * Combination runs first, as in I-GCN: features and weights never
 * change (updates only edit edges), so the engine computes the
 * layer-0 product X W0 once, at construction, and keeps that
 * N x hidden table instead of X. A batch's receptive field is
 * extracted with L = numLayers() hops, seeded island-by-island
 * (targets ordered by the epoch's islandOf, clustering co-batched
 * targets so overlapping neighborhoods are discovered together); its
 * rows of the table are gathered and run through the layer chain
 * (forwardPastLayer0) with the full-graph degree scaling. When the
 * receptive field exceeds wholeGraphFraction of the graph the engine
 * aggregates the whole table over the epoch's cached A_hat instead:
 * the forward would touch nearly every node either way, and the
 * cached A_hat skips the sub-CSR rebuild and row gathers.
 *
 * gemm and sparseTimesDense compute each output row on its own, in
 * ascending-k order, so a table row is byte-equal to the row a
 * per-batch layer-0 product would compute: served logits are
 * bit-identical to whole-graph reference inference per target, for
 * dense and CSR (Features::sparse) features alike, at any
 * IGCN_THREADS.
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
                    std::vector<DenseMatrix> weights,
                    double whole_graph_fraction = 0.5);

    /** Dense-feature convenience ctor (the pre-sparse API). */
    InferenceEngine(std::shared_ptr<GraphStateHub> hub,
                    const DenseMatrix &features,
                    std::vector<DenseMatrix> weights,
                    double whole_graph_fraction = 0.5);

    int numLayers() const { return static_cast<int>(weights.size()); }
    size_t numClasses() const { return weights.back().cols(); }

    /**
     * Attach (or detach, nullptr) a per-island layer-1 aggregation
     * cache. With a cache attached the engine substitutes cached
     * rows for islands fully interior to a batch's receptive field
     * and fills misses from the rows it computes anyway — logits are
     * bit-identical to the cacheless engine by construction (see
     * agg_cache.hpp). Not owned; must outlive the engine's batches.
     */
    void attachAggCache(AggCache *cache) { aggCache = cache; }

    /** Serve one inference micro-batch against the current epoch. */
    std::vector<InferenceResult>
    runBatch(std::span<const Request> batch,
             BatchExecInfo *info = nullptr) const;

  private:
    /** Shared by the public ctors: validates everything but X W0. */
    InferenceEngine(std::shared_ptr<GraphStateHub> hub,
                    std::vector<DenseMatrix> weights,
                    double whole_graph_fraction, size_t feature_rows,
                    size_t feature_cols);

    DenseMatrix forwardWholeGraphCached(const GraphState &state,
                                        BatchExecInfo &info) const;
    DenseMatrix forwardSubgraphCached(const GraphState &state,
                                      const LHopSubgraph &ext,
                                      const CsrMatrix &a_hat,
                                      const DenseMatrix &xw0_local,
                                      BatchExecInfo &info) const;

    std::shared_ptr<GraphStateHub> hub;
    std::vector<DenseMatrix> weights;
    /** X W0 over every node (row v = node v), computed once. */
    DenseMatrix xw0;
    double wholeGraphFraction;
    AggCache *aggCache = nullptr;
};

} // namespace igcn::serve
