#include "serve/update.hpp"

#include <map>
#include <stdexcept>

namespace igcn::serve {

UpdateApplier::UpdateApplier(std::shared_ptr<GraphStateHub> hub,
                             LocatorConfig locator)
    : hub(std::move(hub)), locator(locator)
{
    if (!this->hub)
        throw std::invalid_argument("UpdateApplier: null hub");
}

UpdateResult
UpdateApplier::apply(std::span<const Request> batch)
{
    if (batch.empty())
        throw std::invalid_argument("apply: empty update batch");
    MutexLock writer(writerMutex);
    const std::shared_ptr<const GraphState> cur = hub->acquire();
    const NodeId n = cur->graph.numNodes();

    UpdateResult res;
    res.id = batch.front().id;
    res.arrivalUs = batch.front().arrivalUs;
    res.coalesced = static_cast<uint32_t>(batch.size());

    // Mixed-span coalescing rule: fold the whole span into one
    // last-write-wins net effect per undirected edge, in event order
    // (requests in arrival order; within a request additions before
    // removals). Invalid endpoints and self loops are dropped here —
    // the serving boundary is lenient so a malformed trace event
    // cannot take the server down — and the net effect is then
    // screened against the current epoch, so the strict graph API
    // below (withEditedEdges) always receives exactly the edges that
    // change presence.
    std::map<Edge, bool> want; // normalized edge -> present after span
    size_t proposed = 0;
    size_t invalid = 0;
    for (const Request &r : batch) {
        if (r.kind != RequestKind::Update)
            throw std::invalid_argument(
                "apply: non-update request in batch");
        for (const auto &[u, v] : r.addedEdges) {
            proposed++;
            if (u >= n || v >= n || u == v) {
                invalid++;
                continue;
            }
            want[{std::min(u, v), std::max(u, v)}] = true;
        }
        for (const auto &[u, v] : r.removedEdges) {
            proposed++;
            if (u >= n || v >= n || u == v) {
                invalid++;
                continue;
            }
            want[{std::min(u, v), std::max(u, v)}] = false;
        }
    }
    std::vector<Edge> fresh, stale;
    for (const auto &[e, present] : want) {
        const bool has = cur->graph.hasEdge(e.first, e.second);
        if (present && !has)
            fresh.push_back(e);
        else if (!present && has)
            stale.push_back(e);
    }
    res.edgesApplied = fresh.size();
    res.edgesRemoved = stale.size();
    res.edgesSkippedInvalid = invalid;
    res.edgesSkippedNoop =
        proposed - invalid - fresh.size() - stale.size();

    if (fresh.empty() && stale.empty()) {
        res.epoch = cur->epoch; // no-op: nothing to publish
        return res;
    }

    auto next = std::make_shared<GraphState>();
    next->epoch = cur->epoch + 1;
    // The want-map screening above makes fresh/stale disjoint
    // presence-changing spans, exactly withEditedEdges' contract; one
    // merge sweep replaces the two-pass add-then-remove rebuild.
    next->graph = cur->graph.withEditedEdges(fresh, stale);
    IslandProvenance prov;
    next->islands = updateIslandization(next->graph, cur->islands,
                                        fresh, stale, locator,
                                        &res.stats, &prov);
    // Epoch delta for the aggregation cache: structural provenance
    // (verbatim-preserved islands) intersected with the endpoint
    // dirty sweep — a structurally untouched island whose
    // normalized-adjacency values changed (absorbed intra-island
    // edge, degree change of a listed hub) must not carry its cached
    // aggregate forward.
    for (uint32_t dirty_id : dirtyIslandEndpointSweep(
             next->graph, next->islands, fresh, stale))
        prov.parentOf[dirty_id] = IslandProvenance::kNone;
    next->hasParent = true;
    next->parentEpoch = cur->epoch;
    next->aggProvenance = std::move(prov.parentOf);
    // Only the endpoints' degrees change, so the scaling is patched
    // there; it is byte-equal to a from-scratch degreeScaling.
    std::vector<NodeId> endpoints;
    for (const auto &span : {&fresh, &stale})
        for (const auto &[u, v] : *span) {
            endpoints.push_back(u);
            endpoints.push_back(v);
        }
    next->scale = cur->scale;
    patchDegreeScaling(next->scale, next->graph, endpoints);
    res.epoch = next->epoch;
    hub->publish(std::move(next));
    return res;
}

} // namespace igcn::serve
