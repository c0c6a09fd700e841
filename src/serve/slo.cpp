#include "serve/slo.hpp"

#include <algorithm>

namespace igcn::serve {

const char *
serveErrorName(ServeError e)
{
    switch (e) {
    case ServeError::None: return "admitted";
    case ServeError::Rejected: return "rejected";
    case ServeError::Overloaded: return "overloaded";
    case ServeError::Expired: return "expired";
    case ServeError::ShedStale: return "shed-stale";
    }
    return "?";
}

bool
TokenBucket::tryTake(uint64_t now_us)
{
    const uint64_t elapsed = now_us > lastUs ? now_us - lastUs : 0;
    tokens = std::min(cap,
                      tokens + static_cast<double>(elapsed) * ratePerUs);
    lastUs = std::max(lastUs, now_us);
    if (tokens < 1.0)
        return false;
    tokens -= 1.0;
    return true;
}

double
TokenBucket::available(uint64_t now_us) const
{
    const uint64_t elapsed = now_us > lastUs ? now_us - lastUs : 0;
    return std::min(cap,
                    tokens + static_cast<double>(elapsed) * ratePerUs);
}

ServeError
AdmissionController::tryAdmit(const Request &r, size_t queue_depth)
{
    if (r.kind == RequestKind::Inference && cfg.qpsBudget > 0.0) {
        auto [it, inserted] = buckets.try_emplace(
            r.tenant, cfg.qpsBudget, cfg.burstTokens);
        if (!it->second.tryTake(r.arrivalUs))
            return ServeError::Rejected;
    }
    if (cfg.queueCap > 0 && queue_depth >= cfg.queueCap)
        return ServeError::Overloaded;
    return ServeError::None;
}

uint64_t
FaultPlan::resolveStall(uint64_t t) const
{
    // Windows may chain (one stall's end inside another's window),
    // so iterate to a fixed point; plans are tiny.
    bool moved = true;
    while (moved) {
        moved = false;
        for (const FaultEvent &e : events) {
            if (e.kind != FaultEvent::Kind::EngineStall)
                continue;
            if (t >= e.atUs && t < e.atUs + e.durationUs) {
                t = e.atUs + e.durationUs;
                moved = true;
            }
        }
    }
    return t;
}

void
FaultPlan::applyToTrace(std::vector<Request> &trace) const
{
    if (empty())
        return;
    uint64_t max_id = 0;
    for (Request &r : trace) {
        max_id = std::max(max_id, r.id);
        if (r.kind != RequestKind::Update)
            continue;
        for (const FaultEvent &e : events) {
            if (e.kind != FaultEvent::Kind::UpdateDelay)
                continue;
            if (r.arrivalUs >= e.atUs &&
                r.arrivalUs < e.atUs + e.durationUs)
                r.arrivalUs = e.atUs + e.durationUs;
        }
    }
    for (const FaultEvent &e : events) {
        if (e.kind != FaultEvent::Kind::BurstArrivals)
            continue;
        for (uint32_t i = 0; i < e.count; ++i) {
            Request r;
            r.kind = RequestKind::Inference;
            r.id = ++max_id;
            r.arrivalUs = e.atUs + i; // one per microsecond
            r.tenant = e.tenant;
            r.node = e.node;
            if (e.durationUs > 0)
                r.deadlineUs = r.arrivalUs + e.durationUs;
            trace.push_back(std::move(r));
        }
    }
    std::stable_sort(trace.begin(), trace.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrivalUs < b.arrivalUs;
                     });
}

} // namespace igcn::serve
