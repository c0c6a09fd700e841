#include "serve/engine.hpp"

#include <algorithm>
#include <numeric>
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

uint64_t
BatchExecInfo::aggregatedRows() const
{
    return std::accumulate(layerRows.begin(), layerRows.end(),
                           uint64_t{0});
}

uint64_t
BatchExecInfo::aggregatedEntries() const
{
    return std::accumulate(layerEntries.begin(), layerEntries.end(),
                           uint64_t{0});
}

InferenceEngine::InferenceEngine(std::shared_ptr<GraphStateHub> hub,
                                 const Features &features,
                                 std::vector<DenseMatrix> weights)
    : hub(std::move(hub)), weights(std::move(weights))
{
    if (!this->hub)
        throw std::invalid_argument("InferenceEngine: null hub");
    if (this->weights.empty())
        throw std::invalid_argument("InferenceEngine: no layers");
    if (features.rows() != this->hub->acquire()->graph.numNodes())
        throw std::invalid_argument(
            "InferenceEngine: features rows != graph nodes");
    // Checked here, not by the first batch's kernels: a batch runs on
    // the real-time scheduler thread, where a throw terminates.
    size_t width = features.cols();
    for (size_t l = 0; l < this->weights.size(); ++l) {
        if (this->weights[l].rows() != width)
            throw std::invalid_argument(
                "InferenceEngine: weights[" + std::to_string(l) +
                "] rows != its input width");
        width = this->weights[l].cols();
    }
    xw0 = featuresTimesDense(features, this->weights[0]);
}

namespace {

constexpr NodeId kAbsent = ~NodeId{0};

/** Charge one layer's pull: its unskipped rows and their entries. */
void
recordLayer(BatchExecInfo &info, const CsrMatrix &a_hat,
            const std::vector<NodeId> &rows,
            std::span<const uint8_t> skip)
{
    uint32_t live = 0;
    uint64_t entries = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        if (!skip.empty() && skip[i])
            continue;
        live++;
        entries += a_hat.rowPtr[rows[i] + 1] - a_hat.rowPtr[rows[i]];
    }
    info.layerRows.push_back(live);
    info.layerEntries.push_back(entries);
}

} // namespace

DenseMatrix
InferenceEngine::firstLayer(const GraphState &state,
                            const std::vector<NodeId> &rows,
                            const std::vector<NodeId> &pos,
                            BatchExecInfo &info) const
{
    const CsrMatrix &a_hat = state.normAdj;
    DenseMatrix h1(rows.size(), xw0.cols());
    if (!aggCache) {
        spmmPullRows(a_hat, rows, xw0, {}, h1);
        recordLayer(info, a_hat, rows, {});
        return h1;
    }

    // A first-layer row is a global A_hat row against the global
    // X W0 table — exactly what the cache stores. So an island is
    // consulted, and filled on a miss, iff all its members are
    // first-layer rows of this batch.
    aggCache->advanceTo(state);
    const IslandizationResult &isl = state.islands;
    const size_t hidden = h1.cols();
    std::vector<uint32_t> candidates;
    for (NodeId v : rows)
        if (isl.role[v] == NodeRole::IslandNode)
            candidates.push_back(isl.islandOf[v]);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(
        std::unique(candidates.begin(), candidates.end()),
        candidates.end());

    std::vector<uint8_t> skip(rows.size(), 0);
    std::vector<uint32_t> missed;
    std::vector<float> buf;
    for (uint32_t id : candidates) {
        const std::vector<NodeId> &members = isl.islands[id].nodes;
        if (!std::all_of(members.begin(), members.end(),
                         [&pos](NodeId m) { return pos[m] != kAbsent; }))
            continue;
        info.cacheEligible++;
        buf.resize(members.size() * hidden);
        if (!aggCache->lookup(state.epoch, id, buf.size(),
                              buf.data())) {
            missed.push_back(id);
            continue;
        }
        for (size_t i = 0; i < members.size(); ++i) {
            const NodeId r = pos[members[i]];
            std::copy_n(buf.data() + i * hidden, hidden, h1.row(r));
            skip[r] = 1;
            info.cacheSkippedEdges += a_hat.rowPtr[members[i] + 1] -
                                      a_hat.rowPtr[members[i]];
        }
        info.cacheHits++;
        info.cacheRows += static_cast<uint32_t>(members.size());
    }
    spmmPullRows(a_hat, rows, xw0, {}, h1, skip);
    recordLayer(info, a_hat, rows, skip);
    for (uint32_t id : missed) {
        const std::vector<NodeId> &members = isl.islands[id].nodes;
        std::vector<float> fill(members.size() * hidden);
        for (size_t i = 0; i < members.size(); ++i)
            std::copy_n(h1.row(pos[members[i]]), hidden,
                        fill.data() + i * hidden);
        aggCache->insert(state.epoch, id, std::move(fill));
        info.cacheFills++;
    }
    return h1;
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

    // frontiers[k]: every node within k hops of a target. Layer l
    // (1-based) of L is read only within L - l hops, so it is
    // computed on frontier L - l alone; frontier L itself is never
    // built, as layer 1 reads X W0 rows straight from the table.
    const int layers = numLayers();
    const std::vector<std::vector<NodeId>> frontiers =
        lHopFrontiers(g, targets, layers - 1);

    BatchExecInfo local_info;
    local_info.epoch = state->epoch;
    local_info.targets = static_cast<uint32_t>(targets.size());
    local_info.uniqueTargets =
        static_cast<uint32_t>(frontiers.front().size());
    // The BFS expanded every node of frontier L - 2.
    local_info.bfsWork = frontiers.back().size();
    if (layers >= 2)
        for (NodeId v : frontiers[layers - 2])
            local_info.bfsWork += g.degree(v);

    // pos[v]: v's row in the latest layer output (kAbsent before v
    // was ever a row) — the next layer's column map. Frontiers
    // shrink, so a stale entry is never read: a row of frontier k
    // reads only frontier k + 1, whose positions are current.
    std::vector<NodeId> pos(n, kAbsent);
    const auto index_rows = [&pos](const std::vector<NodeId> &rows) {
        for (size_t i = 0; i < rows.size(); ++i)
            pos[rows[i]] = static_cast<NodeId>(i);
    };
    index_rows(frontiers[layers - 1]);
    DenseMatrix h =
        firstLayer(*state, frontiers[layers - 1], pos, local_info);
    for (int l = 1; l < layers; ++l) {
        const std::vector<NodeId> &rows = frontiers[layers - 1 - l];
        reluInPlace(h);
        const DenseMatrix xw = gemm(h, weights[l]);
        h = DenseMatrix(rows.size(), xw.cols());
        spmmPullRows(state->normAdj, rows, xw, pos, h);
        recordLayer(local_info, state->normAdj, rows, {});
        index_rows(rows);
    }

    // h now holds frontier 0 (the unique targets), indexed by pos.
    std::vector<InferenceResult> results;
    results.reserve(batch.size());
    for (const Request &req : batch) {
        InferenceResult res;
        res.id = req.id;
        res.node = req.node;
        res.tenant = req.tenant;
        res.epoch = state->epoch;
        res.arrivalUs = req.arrivalUs;
        res.batchSize = static_cast<uint32_t>(batch.size());
        const float *row = h.row(pos[req.node]);
        res.logits.assign(row, row + numClasses());
        results.push_back(std::move(res));
    }
    if (info)
        *info = std::move(local_info);
    return results;
}

} // namespace igcn::serve
