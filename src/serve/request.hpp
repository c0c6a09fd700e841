/**
 * @file
 * Request and response types of the online inference server.
 *
 * The serving subsystem is the first request-driven execution mode of
 * the repo: node-level inference requests ("classify node v") and
 * graph-mutation requests ("add these edges") share one scheduler,
 * which forms micro-batches, and the engine drives the existing
 * islandization + SpMM stack. Timestamps are microseconds on
 * the server clock — virtual (trace-supplied) in replay mode, a
 * steady_clock offset in real-time mode — so the same structures
 * serve both the deterministic test/replay path and live traffic.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "core/incremental.hpp"
#include "graph/csr.hpp"

namespace igcn::serve {

/** What a request asks the server to do. */
enum class RequestKind : uint8_t { Inference, Update };

/**
 * Scheduling priority. EDF is the primary order; priority breaks
 * deadline ties (and orders the no-deadline tail), so an Interactive
 * request is never scheduled behind a Batch request with the same
 * deadline.
 */
enum class Priority : uint8_t { Interactive = 0, Normal = 1, Batch = 2 };

/**
 * Freshness demanded by an inference request. Bounded requests may be
 * served from an epoch at most `SloConfig::stalenessBound` update
 * requests behind the freshest state admitted before them; Strict
 * requests treat every earlier-admitted update as a hard sequence
 * point (the pre-SLO semantics).
 */
enum class Freshness : uint8_t { Bounded = 0, Strict = 1 };

/**
 * Why the server refused to serve a request. `None` means admitted
 * and served.
 *
 *  - Rejected:   tenant token bucket empty (over qps budget).
 *  - Overloaded: bounded queue at capacity; never enqueued.
 *  - Expired:    admitted, but its deadline passed while it waited;
 *                dropped instead of served late.
 *  - ShedStale:  admitted, but its deadline passed while it was
 *                *ineligible* — blocked on updates it was not allowed
 *                to skip (Strict, or bounded-staleness budget spent).
 */
enum class ServeError : uint8_t
{
    None = 0,
    Rejected,
    Overloaded,
    Expired,
    ShedStale,
};

/** Human-readable name of a ServeError ("admitted" for None). */
const char *serveErrorName(ServeError e);

/**
 * Typed outcome of Server::submitInference / submitUpdate — replaces
 * the old "uint64_t id or exception" surface. `ok()` means the
 * request was admitted; otherwise `error` says why it was refused
 * (the request was never enqueued).
 */
struct ServeResult
{
    uint64_t id = 0;
    ServeError error = ServeError::None;
    bool ok() const { return error == ServeError::None; }
};

/** One refused request, recorded in the replay report. */
struct Rejection
{
    uint64_t id = 0;
    uint32_t tenant = 0;
    RequestKind kind = RequestKind::Inference;
    ServeError error = ServeError::Rejected;
    /** When the rejection happened (admission or drop time). */
    uint64_t atUs = 0;
};

/** One queued request (tagged union over the two kinds). */
struct Request
{
    RequestKind kind = RequestKind::Inference;
    /** Caller-assigned id, echoed in the matching result. */
    uint64_t id = 0;
    /** Arrival time in server microseconds. */
    uint64_t arrivalUs = 0;
    /** Tenant the request is billed to (token-bucket admission). */
    uint32_t tenant = 0;
    /** EDF tie-break; see Priority. */
    Priority priority = Priority::Normal;
    /** Absolute deadline in server microseconds; 0 = none. A request
     *  not dispatched by its deadline is dropped (Expired/ShedStale),
     *  never served late. */
    uint64_t deadlineUs = 0;
    /** Staleness contract (Inference only); see Freshness. */
    Freshness freshness = Freshness::Bounded;
    /** Target node (Inference only). */
    NodeId node = 0;
    /** Undirected edges to add (Update only). */
    std::vector<Edge> addedEdges;
    /**
     * Undirected edges to delete (Update only). One request may
     * carry both lists; its removals apply after its additions, and
     * across a coalesced span the applier folds everything into one
     * last-write-wins net effect (see UpdateApplier).
     */
    std::vector<Edge> removedEdges;
};

/** Completed inference request. */
struct InferenceResult
{
    uint64_t id = 0;
    NodeId node = 0;
    /** Tenant of the originating request. */
    uint32_t tenant = 0;
    /** Graph epoch the result was computed against. */
    uint64_t epoch = 0;
    /** How many admitted-before-it update requests were still
     *  unapplied when it was served (0 = fresh; bounded-staleness
     *  reads allow up to SloConfig::stalenessBound). */
    uint32_t epochsBehind = 0;
    /** Absolute deadline it was admitted under (0 = none). */
    uint64_t deadlineUs = 0;
    /** Freshness contract it was served under. */
    Freshness freshness = Freshness::Bounded;
    /** Output row for the node (numClasses floats). */
    std::vector<float> logits;
    uint64_t arrivalUs = 0;
    /** When the micro-batch left the queue. */
    uint64_t startUs = 0;
    /** Completion time; latency = doneUs - arrivalUs. */
    uint64_t doneUs = 0;
    /** Size of the micro-batch this request rode in. */
    uint32_t batchSize = 0;
};

/** Completed (possibly coalesced) update application. */
struct UpdateResult
{
    /** Id of the first request folded into this application. */
    uint64_t id = 0;
    /** Epoch published by this update (unchanged if it was a no-op). */
    uint64_t epoch = 0;
    IncrementalStats stats;
    /** Requests coalesced into the single application. */
    uint32_t coalesced = 0;
    /** New undirected edges actually inserted. */
    size_t edgesApplied = 0;
    /** Existing undirected edges actually deleted. */
    size_t edgesRemoved = 0;
    /** Malformed events dropped at the lenient serving boundary:
     *  out-of-range endpoints and self loops. */
    size_t edgesSkippedInvalid = 0;
    /** Well-formed events with no presence change: additions already
     *  present, removals already absent, add/remove pairs that
     *  cancelled inside the span (benign duplicates, not trace bugs —
     *  the distinction edgesSkippedInvalid exists to keep). */
    size_t edgesSkippedNoop = 0;
    /** Total events dropped, either way. */
    size_t edgesSkipped() const
    {
        return edgesSkippedInvalid + edgesSkippedNoop;
    }
    uint64_t arrivalUs = 0;
    uint64_t startUs = 0;
    uint64_t doneUs = 0;
};

} // namespace igcn::serve
