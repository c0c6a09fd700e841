/**
 * @file
 * The serving scheduler: one continuous-batching loop (the µLLM/vLLM
 * shape adapted to graph serving) that both the virtual-clock replay
 * and the real-time server drive. At every engine-free instant it
 * serves whatever is eligible — no straggler wait, so under light
 * load requests go out alone immediately and under load batches fill
 * from the backlog.
 *
 * Updates are sequence points: a read admitted after an update is
 * served against an epoch that includes it (up to the bounded-
 * staleness budget K), and an update admitted after a waiting read
 * never applies before that read is served. With the default
 * SloConfig (no deadlines, no admission limits, K = 0) this is plain
 * first-come-first-served order between reads and updates, which is
 * what makes per-request results independent of the batch cap.
 *
 * In virtual mode every decision is a pure function of the admitted
 * request timestamps, this config and the fault plan — the
 * determinism contract the test suite locks in across thread counts
 * and batch caps.
 */

#pragma once

#include "serve/queue.hpp"
#include "serve/slo.hpp"

namespace igcn::serve {

/** Micro-batching knobs. */
struct SchedulerConfig
{
    /** Inference micro-batch size cap. */
    uint32_t maxBatch = 32;
    /** Consecutive update requests folded into one application. */
    uint32_t maxUpdateCoalesce = 64;
};

/** One scheduled micro-batch (all requests share a kind). */
struct MicroBatch
{
    RequestKind kind = RequestKind::Inference;
    std::vector<Request> requests;
    /** Dispatch time: when the batch left the queue. */
    uint64_t formedAtUs = 0;
};

/**
 * The serving scheduler: EDF + drop-expired over admitted inference
 * requests, arrival-ordered update application, and bounded-
 * staleness interleaving.
 *
 * Policy, applied at every engine-free moment t:
 *
 *  1. Drop every pooled inference request whose deadline passed
 *     (< t): Expired if it was eligible and simply waited too long,
 *     ShedStale if it was blocked on its freshness gate.
 *  2. If any pooled inference request is *eligible* — the applier is
 *     within its staleness budget (0 for Strict, K for Bounded) —
 *     serve an inference batch: eligible requests in EDF order, up
 *     to maxBatch.
 *  3. Otherwise, if updates are pending, apply a coalesced update
 *     batch: the pending updates admitted before the earliest-
 *     admitted pooled read (every pending one when no read is
 *     pooled), up to maxUpdateCoalesce. Consecutive updates coalesce
 *     regardless of whether they add or delete edges — the applier
 *     folds the mixed span into one last-write-wins net effect.
 *
 * Step 2 before step 3 is what keeps p99 flat during update bursts:
 * bounded-staleness requests keep being served from the current
 * epoch while updates queue, and updates apply exactly when the
 * staleness bound forces them (every pooled request ineligible) or
 * when inference goes idle. Because ineligibility implies pending
 * updates (requiredSeq counts only admitted updates), the policy
 * never deadlocks; K therefore truly bounds how far any served
 * request's epoch can lag the updates admitted before it. Step 3's
 * limit is the sequence-point rule: an update never overtakes a read
 * admitted before it, so the applied sequence never passes a pooled
 * read's requiredSeq, and K = 0 reproduces first-come-first-served
 * order exactly.
 *
 * Single-threaded; decisions are a pure function of the admitted
 * request timestamps, the config, and the fault plan — the replay
 * determinism contract.
 */
class SloScheduler
{
  public:
    SloScheduler(SchedulerConfig batch_cfg, SloConfig slo,
                 const FaultPlan *faults = nullptr);

    /** Pool an admitted request (admission control happens
     *  upstream). Updates advance the admitted-update sequence that
     *  later requests' freshness is measured against. */
    void admit(Request r);

    /** Requests currently pooled (inference + updates). */
    size_t depth() const { return inf.size() + upd.size(); }
    bool empty() const { return depth() == 0; }

    /** Engine-free dispatch time for the next decision: max(busy,
     *  earliest pooled arrival), slid past engine-stall windows.
     *  Pools must be non-empty. */
    uint64_t nextDispatchTimeUs(uint64_t busy_until_us) const;

    /** What the scheduler decided to do at one dispatch point. */
    struct Decision
    {
        enum class Kind : uint8_t { Inference, Update, Drops } kind =
            Kind::Drops;
        MicroBatch batch;
        /** Per-request staleness (parallel to batch.requests;
         *  Inference only): admitted-before updates still unapplied
         *  at dispatch. */
        std::vector<uint32_t> epochsBehind;
        /** Requests dropped at this dispatch point (deadline
         *  passed). */
        std::vector<EdfQueue::Dropped> dropped;
    };

    /**
     * Form the next decision at the engine-free time busy_until_us.
     * Returns false when nothing is pooled. Kind::Drops means the
     * step only dropped expired requests (the pools may now be
     * empty); call again for the next batch.
     */
    bool next(uint64_t busy_until_us, Decision &out);

    /** Updates applied so far: the sequence eligibility is measured
     *  against. Advanced by the update batches next() forms. */
    uint64_t appliedSeq() const { return applied; }

  private:
    SchedulerConfig cfg;
    SloConfig slo;
    const FaultPlan *faults;
    EdfQueue inf;
    std::deque<Request> upd;
    uint64_t admittedUpd = 0;
    uint64_t applied = 0;
};

} // namespace igcn::serve
