/**
 * @file
 * The update applier: edge-mutation requests become new graph epochs.
 *
 * Each apply() takes one (possibly coalesced) update micro-batch of
 * mixed edge additions and deletions, folds it into one
 * last-write-wins net effect per undirected edge (the mixed-span
 * coalescing rule: requests in arrival order, additions before
 * removals within a request), and builds the next epoch privately
 * from the current one, recomputing only what the edit touches —
 * the endpoint rows of the graph (CsrGraph::withEditedEdges),
 * *incremental* islandization repair (updateIslandization with both
 * spans: the paper's evolving-graph machinery, dissolve-on-remove
 * included; it splices the parent's flat island table, so it too
 * copies arrays rather than islands) and the endpoints' degree
 * scaling (patchDegreeScaling); every other row is copied — and
 * publishes it through the GraphStateHub. No A_hat is built: the
 * engine forms each normalized entry from the graph and scaling as
 * it pulls a row. Retiring an epoch frees a fixed handful of arrays,
 * however many islands it holds. In-flight inference batches keep
 * their pre-update snapshots; batches formed after the publish see
 * the new epoch. Updates whose net effect is empty (duplicate or
 * already-present additions, already-absent removals, add/remove
 * pairs cancelling inside the span, self loops, out-of-range
 * endpoints) publish no epoch.
 */

#pragma once

#include "runtime/thread_annotations.hpp"
#include "serve/engine.hpp"

namespace igcn::serve {

/** Applies update micro-batches; single logical writer. */
class UpdateApplier
{
  public:
    UpdateApplier(std::shared_ptr<GraphStateHub> hub,
                  LocatorConfig locator = {});

    /**
     * Apply a coalesced update micro-batch (all requests must be
     * Updates). Thread-safe: concurrent callers serialize so epochs
     * advance one at a time.
     */
    UpdateResult apply(std::span<const Request> batch)
        IGCN_EXCLUDES(writerMutex);

  private:
    std::shared_ptr<GraphStateHub> hub;
    LocatorConfig locator;
    Mutex writerMutex;
};

} // namespace igcn::serve
