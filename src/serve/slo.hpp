/**
 * @file
 * SLO machinery for the serving subsystem: the scheduler's SLO knobs,
 * per-tenant token-bucket admission control with a bounded queue, and
 * the deterministic fault-injection plan.
 *
 * Admission happens at the serving boundary, *before* a request is
 * enqueued: an over-budget submission is Rejected and an
 * over-capacity one Overloaded — refused immediately with a typed
 * ServeError, never queued. That is what bounds queue memory under
 * overload: with a `queueCap`, the queue holds at most that many
 * waiting requests no matter how fast arrivals come. The default
 * SloConfig sets no limit, so every request is admitted.
 *
 * Everything here is a pure function of integer virtual-clock
 * timestamps (token refill included: the bucket state after an
 * arrival depends only on the arrival times seen so far), so
 * admission decisions in replay mode are bit-reproducible across
 * runs and IGCN_THREADS settings. In real-time mode the same code
 * runs against the live server clock.
 */

#pragma once

#include <map>
#include <vector>

#include "serve/request.hpp"

namespace igcn::serve {

/** SLO / robustness knobs. Default-constructed = no limits: every
 *  request is admitted, and with no deadlines and K = 0 reads and
 *  updates are served first-come-first-served. */
struct SloConfig
{
    /**
     * Bounded queue: maximum number of admitted requests waiting
     * (inference + updates). A submission finding the queue full is
     * refused with ServeError::Overloaded. 0 = unbounded.
     */
    uint32_t queueCap = 0;
    /**
     * Per-tenant token-bucket rate in requests per second; applies
     * to inference traffic (updates are system traffic and are
     * bounded by queueCap only). 0 = unlimited.
     */
    double qpsBudget = 0.0;
    /** Token-bucket capacity (burst allowance), in requests. */
    double burstTokens = 32.0;
    /**
     * Bounded staleness K: a Freshness::Bounded inference request
     * may be served from an epoch at most K *update requests* behind
     * the freshest state admitted before it. 0 = every update is a
     * hard sequence point for everyone.
     * Freshness::Strict requests always behave as if K were 0.
     */
    uint32_t stalenessBound = 0;
};

/**
 * Deterministic token bucket. Refill is computed lazily from the
 * elapsed time at each take, so the bucket state is a pure function
 * of the (integer) timestamps at which takes happened.
 */
class TokenBucket
{
  public:
    TokenBucket() = default;
    TokenBucket(double qps, double burst)
        : tokens(burst), ratePerUs(qps * 1e-6), cap(burst)
    {}

    /** Take one token at time now_us; false = bucket empty. */
    bool tryTake(uint64_t now_us);

    double available(uint64_t now_us) const;

  private:
    double tokens = 0.0;
    double ratePerUs = 0.0;
    double cap = 0.0;
    uint64_t lastUs = 0;
};

/**
 * The admission pipeline (budget check, then capacity check).
 * Single-threaded in replay mode; the real-time server serializes
 * calls behind its submit mutex.
 */
class AdmissionController
{
  public:
    explicit AdmissionController(const SloConfig &cfg) : cfg(cfg) {}

    /**
     * Decide admission of `r` arriving at `r.arrivalUs` with
     * `queue_depth` requests already waiting. Returns
     * ServeError::None (admit), Rejected (tenant over budget), or
     * Overloaded (queue at capacity). Updates are exempt from the
     * token budget but count against — and are bounded by — the
     * queue capacity.
     */
    ServeError tryAdmit(const Request &r, size_t queue_depth);

  private:
    SloConfig cfg;
    std::map<uint32_t, TokenBucket> buckets;
};

/** One deterministic fault event, keyed off the virtual clock. */
struct FaultEvent
{
    enum class Kind : uint8_t
    {
        /** Engine serves nothing in [atUs, atUs + durationUs): a
         *  stall (GC pause, checkpoint, slow shard). Dispatch times
         *  falling inside the window slide to its end. */
        EngineStall,
        /** Update requests arriving in [atUs, atUs + durationUs)
         *  are delayed to the window end (replication lag): the
         *  update burst then lands all at once — the bounded-
         *  staleness path's worst case. */
        UpdateDelay,
        /** `count` extra inference requests arrive at atUs
         *  (one per microsecond), targeting `node` and billed to
         *  `tenant`; each carries a relative deadline of durationUs
         *  (0 = none). A synthetic thundering herd. */
        BurstArrivals,
    };

    Kind kind = Kind::EngineStall;
    uint64_t atUs = 0;
    uint64_t durationUs = 0;
    uint32_t count = 0;
    NodeId node = 0;
    uint32_t tenant = 0;
};

/**
 * A deterministic fault-injection plan: a set of virtual-clock-keyed
 * events applied to a replay. Trace-shape faults (UpdateDelay,
 * BurstArrivals) are applied as a deterministic trace rewrite before
 * scheduling; EngineStall is applied at dispatch time. The same plan
 * therefore produces the same degraded behavior at any IGCN_THREADS
 * setting — degradation is differentially testable.
 */
struct FaultPlan
{
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    /**
     * Dispatch-time hook: the earliest time >= t at which the engine
     * may start work, sliding t past every EngineStall window it
     * falls into (windows may chain).
     */
    uint64_t resolveStall(uint64_t t) const;

    /**
     * Trace rewrite: delay updates caught in UpdateDelay windows,
     * inject BurstArrivals requests (ids continue above the trace's
     * maximum), and re-sort by arrival. Deterministic.
     */
    void applyToTrace(std::vector<Request> &trace) const;
};

} // namespace igcn::serve
