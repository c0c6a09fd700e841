#include "serve/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace igcn::serve {

SloScheduler::SloScheduler(SchedulerConfig batch_cfg, SloConfig slo,
                           const FaultPlan *faults)
    : cfg(batch_cfg), slo(slo), faults(faults)
{}

void
SloScheduler::admit(Request r)
{
    if (r.kind == RequestKind::Update) {
        admittedUpd++;
        upd.push_back(std::move(r));
    } else {
        inf.add(std::move(r), admittedUpd);
    }
}

uint64_t
SloScheduler::nextDispatchTimeUs(uint64_t busy_until_us) const
{
    uint64_t earliest = ~uint64_t{0};
    if (!inf.empty())
        earliest = inf.earliestArrivalUs();
    if (!upd.empty())
        earliest = std::min(earliest, upd.front().arrivalUs);
    uint64_t t = std::max(busy_until_us, earliest);
    if (faults)
        t = faults->resolveStall(t);
    return t;
}

bool
SloScheduler::next(uint64_t busy_until_us, Decision &out)
{
    out = Decision{};
    if (empty())
        return false;
    const uint64_t t = nextDispatchTimeUs(busy_until_us);

    // 1. Drop-expired: requests that cannot start by their deadline
    // are refused, never served late.
    out.dropped = inf.dropExpired(t, applied, slo.stalenessBound);

    // 2. EDF inference batch over eligible requests.
    const uint32_t inf_cap = std::max<uint32_t>(1, cfg.maxBatch);
    EdfQueue::Entry e;
    while (out.batch.requests.size() < inf_cap &&
           inf.popEligible(applied, slo.stalenessBound, e)) {
        // Step 3 never applies past a pooled read's requiredSeq.
        assert(e.requiredSeq >= applied);
        out.epochsBehind.push_back(
            static_cast<uint32_t>(e.requiredSeq - applied));
        out.batch.requests.push_back(std::move(e.req));
    }
    if (!out.batch.requests.empty()) {
        out.kind = Decision::Kind::Inference;
        out.batch.kind = RequestKind::Inference;
        out.batch.formedAtUs = t;
        return true;
    }

    // 3. Update application (coalesced). Reached when no inference
    // is eligible: pool empty, or everyone is blocked on these
    // updates. Only the updates admitted before the earliest-admitted
    // pooled read apply: a later one would overtake that read.
    if (!upd.empty()) {
        const uint64_t limit =
            inf.empty() ? admittedUpd : inf.minRequiredSeq();
        const uint64_t upd_cap = std::min<uint64_t>(
            std::max<uint32_t>(1, cfg.maxUpdateCoalesce),
            limit - applied);
        out.kind = Decision::Kind::Update;
        out.batch.kind = RequestKind::Update;
        out.batch.formedAtUs = t;
        while (out.batch.requests.size() < upd_cap) {
            out.batch.requests.push_back(std::move(upd.front()));
            upd.pop_front();
        }
        applied += out.batch.requests.size();
        return true;
    }

    // Only drops happened this step (possibly emptying the pool).
    out.kind = Decision::Kind::Drops;
    out.batch.formedAtUs = t;
    return true;
}

} // namespace igcn::serve
