#include "serve/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "serve/agg_cache.hpp"
#include "spmm/spmm.hpp"

namespace igcn::serve {

std::shared_ptr<const GraphState>
makeGraphState(CsrGraph g, const LocatorConfig &cfg, uint64_t epoch)
{
    auto state = std::make_shared<GraphState>();
    state->epoch = epoch;
    state->islands = islandize(g, cfg);
    state->scale = degreeScaling(g);
    state->graph = std::move(g);
    refreshNormalizedAdjacency(state->normAdj, state->graph,
                               state->scale);
    return state;
}

GraphStateHub::GraphStateHub(std::shared_ptr<const GraphState> initial)
    : current(std::move(initial))
{
    if (!current)
        throw std::invalid_argument("GraphStateHub: null initial state");
}

std::shared_ptr<const GraphState>
GraphStateHub::acquire() const
{
    MutexLock lock(mutex);
    return current;
}

void
GraphStateHub::publish(std::shared_ptr<const GraphState> next)
{
    if (!next)
        throw std::invalid_argument("GraphStateHub: null state");
    MutexLock lock(mutex);
    if (next->epoch <= current->epoch)
        throw std::invalid_argument(
            "GraphStateHub: epoch must advance");
    current = std::move(next);
}

uint64_t
GraphStateHub::currentEpoch() const
{
    MutexLock lock(mutex);
    return current->epoch;
}

InferenceEngine::InferenceEngine(std::shared_ptr<GraphStateHub> hub,
                                 std::vector<DenseMatrix> weights,
                                 double whole_graph_fraction,
                                 size_t feature_rows, size_t feature_cols)
    : hub(std::move(hub)), weights(std::move(weights)),
      wholeGraphFraction(whole_graph_fraction)
{
    if (!this->hub)
        throw std::invalid_argument("InferenceEngine: null hub");
    if (this->weights.empty())
        throw std::invalid_argument("InferenceEngine: no layers");
    if (feature_rows != this->hub->acquire()->graph.numNodes())
        throw std::invalid_argument(
            "InferenceEngine: features rows != graph nodes");
    // Checked here, not by the first batch's kernels: a batch runs on
    // the real-time scheduler thread, where a throw terminates.
    size_t width = feature_cols;
    for (size_t l = 0; l < this->weights.size(); ++l) {
        if (this->weights[l].rows() != width)
            throw std::invalid_argument(
                "InferenceEngine: weights[" + std::to_string(l) +
                "] rows != its input width");
        width = this->weights[l].cols();
    }
}

InferenceEngine::InferenceEngine(std::shared_ptr<GraphStateHub> hub,
                                 const Features &features,
                                 std::vector<DenseMatrix> weights,
                                 double whole_graph_fraction)
    : InferenceEngine(std::move(hub), std::move(weights),
                      whole_graph_fraction, features.rows(),
                      features.cols())
{
    xw0 = features.sparse ? sparseTimesDense(features.csr, this->weights[0])
                          : gemm(features.dense, this->weights[0]);
}

InferenceEngine::InferenceEngine(std::shared_ptr<GraphStateHub> hub,
                                 const DenseMatrix &features,
                                 std::vector<DenseMatrix> weights,
                                 double whole_graph_fraction)
    : InferenceEngine(std::move(hub), std::move(weights),
                      whole_graph_fraction, features.rows(),
                      features.cols())
{
    xw0 = gemm(features, this->weights[0]);
}

namespace {

/**
 * Copy an island entry's rows (member-order flat buffer) into the
 * matching rows of h1 under a local-id mapping, marking them skipped
 * and charging the adjacency entries (minus the self loop) the
 * masked spmm will not pull.
 */
template <typename LocalOf>
void
substituteIslandRows(const Island &island, const float *rows,
                     size_t hidden, const CsrMatrix &a_hat,
                     LocalOf &&local_of, DenseMatrix &h1,
                     std::vector<uint8_t> &skip,
                     BatchExecInfo &info)
{
    for (size_t i = 0; i < island.nodes.size(); ++i) {
        const size_t l = local_of(island.nodes[i]);
        std::copy_n(rows + i * hidden, hidden, h1.row(l));
        skip[l] = 1;
        info.cacheSkippedEdges +=
            a_hat.rowPtr[l + 1] - a_hat.rowPtr[l] - 1;
    }
    info.cacheHits++;
    info.cacheRows += static_cast<uint32_t>(island.nodes.size());
}

/** Gather an island's computed h1 rows into a fill buffer. */
template <typename LocalOf>
std::vector<float>
gatherIslandRows(const Island &island, size_t hidden,
                 const DenseMatrix &h1, LocalOf &&local_of)
{
    std::vector<float> rows(island.nodes.size() * hidden);
    for (size_t i = 0; i < island.nodes.size(); ++i)
        std::copy_n(h1.row(local_of(island.nodes[i])), hidden,
                    rows.data() + i * hidden);
    return rows;
}

} // namespace

DenseMatrix
InferenceEngine::forwardWholeGraphCached(const GraphState &state,
                                         BatchExecInfo &info) const
{
    // The whole-graph pass touches every island, so all of them are
    // consultable and every miss can be filled — global layer-1 rows
    // are exactly what the cache stores.
    const IslandizationResult &isl = state.islands;
    const size_t hidden = weights[0].cols();
    const NodeId n = state.graph.numNodes();
    DenseMatrix h1(n, hidden);
    std::vector<uint8_t> skip(n, 0);
    const auto identity = [](NodeId v) { return static_cast<size_t>(v); };
    info.cacheEligible += static_cast<uint32_t>(isl.islands.size());
    std::vector<uint32_t> missed;
    std::vector<float> buf;
    for (uint32_t id = 0; id < isl.islands.size(); ++id) {
        const Island &island = isl.islands[id];
        buf.resize(island.nodes.size() * hidden);
        if (aggCache->lookup(state.epoch, id, buf.size(), buf.data()))
            substituteIslandRows(island, buf.data(), hidden,
                                 state.normAdj, identity, h1, skip,
                                 info);
        else
            missed.push_back(id);
    }
    spmmPullRowWiseMasked(state.normAdj, xw0, skip, h1);
    for (uint32_t id : missed) {
        aggCache->insert(state.epoch, id,
                         gatherIslandRows(isl.islands[id], hidden, h1,
                                          identity));
        info.cacheFills++;
    }
    return forwardPastLayer0(state.normAdj, std::move(h1), weights);
}

DenseMatrix
InferenceEngine::forwardSubgraphCached(const GraphState &state,
                                       const LHopSubgraph &ext,
                                       const CsrMatrix &a_hat,
                                       const DenseMatrix &xw0_local,
                                       BatchExecInfo &info) const
{
    // Only layer-1 aggregation rows are cached; the layer-0 product
    // comes from the engine's X W0 table, as on the uncached path.
    const IslandizationResult &isl = state.islands;
    const size_t hidden = weights[0].cols();

    // An island qualifies when its members AND its hub list are all
    // inside the receptive field: then every member's full global
    // neighborhood is present (the coverage invariant bounds it by
    // island ∪ hubs), local ids preserve ascending global order, and
    // the full-graph scaling is identical — so the island's in-sub
    // layer-1 member rows equal the whole-graph rows bitwise, making
    // cached global rows substitutable and computed ones fillable.
    std::vector<uint8_t> in_field(state.graph.numNodes(), 0);
    for (NodeId v : ext.nodes)
        in_field[v] = 1;
    std::vector<uint32_t> candidates;
    for (NodeId v : ext.nodes)
        if (isl.role[v] == NodeRole::IslandNode)
            candidates.push_back(isl.islandOf[v]);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(
        std::unique(candidates.begin(), candidates.end()),
        candidates.end());
    std::vector<uint32_t> qualifying;
    for (uint32_t id : candidates) {
        const Island &island = isl.islands[id];
        bool interior = true;
        for (NodeId m : island.nodes)
            if (!in_field[m]) {
                interior = false;
                break;
            }
        if (interior)
            for (NodeId h : island.hubs)
                if (!in_field[h]) {
                    interior = false;
                    break;
                }
        if (interior)
            qualifying.push_back(id);
    }
    info.cacheEligible += static_cast<uint32_t>(qualifying.size());

    const auto local_of = [&ext](NodeId gid) {
        return static_cast<size_t>(
            std::lower_bound(ext.nodes.begin(), ext.nodes.end(),
                             gid) -
            ext.nodes.begin());
    };
    DenseMatrix h1(ext.nodes.size(), hidden);
    std::vector<uint8_t> skip(ext.nodes.size(), 0);
    std::vector<uint32_t> missed;
    std::vector<float> buf;
    for (uint32_t id : qualifying) {
        const Island &island = isl.islands[id];
        buf.resize(island.nodes.size() * hidden);
        if (aggCache->lookup(state.epoch, id, buf.size(), buf.data()))
            substituteIslandRows(island, buf.data(), hidden, a_hat,
                                 local_of, h1, skip, info);
        else
            missed.push_back(id);
    }
    spmmPullRowWiseMasked(a_hat, xw0_local, skip, h1);
    for (uint32_t id : missed) {
        aggCache->insert(state.epoch, id,
                         gatherIslandRows(isl.islands[id], hidden, h1,
                                          local_of));
        info.cacheFills++;
    }
    return forwardPastLayer0(a_hat, std::move(h1), weights);
}

std::vector<InferenceResult>
InferenceEngine::runBatch(std::span<const Request> batch,
                          BatchExecInfo *info) const
{
    const std::shared_ptr<const GraphState> state = hub->acquire();
    const CsrGraph &g = state->graph;
    const NodeId n = g.numNodes();

    std::vector<NodeId> targets;
    targets.reserve(batch.size());
    for (const Request &r : batch) {
        if (r.kind != RequestKind::Inference)
            throw std::invalid_argument(
                "runBatch: non-inference request in batch");
        if (r.node >= n)
            throw std::out_of_range(
                "runBatch: target node exceeds num_nodes");
        targets.push_back(r.node);
    }

    // Island-aware clustering: deduplicate, then seed extraction
    // island-by-island so co-batched targets from one community are
    // expanded together and their shared neighborhoods are discovered
    // once, while they are still close in the traversal.
    std::vector<NodeId> uniq = targets;
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    const auto &island_of = state->islands.islandOf;
    std::stable_sort(uniq.begin(), uniq.end(),
                     [&island_of](NodeId a, NodeId b) {
                         return island_of[a] < island_of[b];
                     });

    BatchExecInfo local_info;
    local_info.epoch = state->epoch;
    local_info.targets = static_cast<uint32_t>(targets.size());
    local_info.uniqueTargets = static_cast<uint32_t>(uniq.size());

    // The node set alone decides the path; the sub-CSR is only built
    // when the subgraph path is actually taken.
    std::vector<NodeId> field = lHopNodeSet(g, uniq, numLayers());
    DenseMatrix out;             // forward output rows
    std::vector<NodeId> out_row; // row of `out` per request
    if (static_cast<double>(field.size()) >=
        wholeGraphFraction * static_cast<double>(n)) {
        // Receptive field covers most of the graph: the cached
        // whole-graph A_hat is cheaper than building a sub-CSR of
        // nearly the same size.
        local_info.wholeGraph = true;
        if (aggCache) {
            aggCache->advanceTo(*state);
            out = forwardWholeGraphCached(*state, local_info);
        } else {
            out = forwardPastLayer0(
                state->normAdj, spmmPullRowWise(state->normAdj, xw0),
                weights);
        }
        out_row = std::move(targets);
    } else {
        LHopSubgraph ext = inducedSubgraph(g, std::move(field), targets);
        local_info.subNodes =
            static_cast<uint32_t>(ext.nodes.size());
        local_info.subEdges = ext.sub.numEdges();
        std::vector<float> scale_local(ext.nodes.size());
        DenseMatrix xw0_local(ext.nodes.size(), xw0.cols());
        for (size_t l = 0; l < ext.nodes.size(); ++l) {
            scale_local[l] = state->scale[ext.nodes[l]];
            std::copy_n(xw0.row(ext.nodes[l]), xw0.cols(),
                        xw0_local.row(l));
        }
        CsrMatrix a_hat = normalizedAdjacencyScaled(ext.sub, scale_local);
        if (aggCache) {
            // The cached chain is the uncached one with layer-1 rows
            // of fully-interior islands substituted (bit-identical by
            // construction; see forwardSubgraphCached).
            aggCache->advanceTo(*state);
            out = forwardSubgraphCached(*state, ext, a_hat, xw0_local,
                                        local_info);
        } else {
            out = forwardPastLayer0(
                a_hat, spmmPullRowWise(a_hat, xw0_local), weights);
        }
        out_row = std::move(ext.targetLocal);
    }

    std::vector<InferenceResult> results;
    results.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        InferenceResult res;
        res.id = batch[i].id;
        res.node = batch[i].node;
        res.tenant = batch[i].tenant;
        res.epoch = state->epoch;
        res.arrivalUs = batch[i].arrivalUs;
        res.batchSize = static_cast<uint32_t>(batch.size());
        res.logits.assign(out.row(out_row[i]),
                          out.row(out_row[i]) + numClasses());
        results.push_back(std::move(res));
    }
    if (info)
        *info = local_info;
    return results;
}

} // namespace igcn::serve
