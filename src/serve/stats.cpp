#include "serve/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace igcn::serve {

namespace {

// Family names, once: recording and reconstruction must agree.
constexpr char kInfLat[] = "igcn_serve_inference_latency_us";
constexpr char kUpdLat[] = "igcn_serve_update_latency_us";
constexpr char kTenantLat[] = "igcn_serve_tenant_latency_us";
constexpr char kBatchSize[] = "igcn_serve_batch_size_total";
constexpr char kStaleness[] = "igcn_serve_staleness_total";
constexpr char kAdmitted[] = "igcn_serve_admitted_total";
constexpr char kRejected[] = "igcn_serve_rejected_total";
constexpr char kOverloaded[] = "igcn_serve_overloaded_total";
constexpr char kExpired[] = "igcn_serve_expired_total";
constexpr char kShedStale[] = "igcn_serve_shed_stale_total";
constexpr char kServed[] = "igcn_serve_served_total";

obs::Labels
tenantLabels(uint32_t tenant)
{
    return {{"tenant", std::to_string(tenant)}};
}

LatencySummary
summarize(const obs::Histogram &h)
{
    LatencySummary s;
    s.count = h.count();
    if (s.count == 0)
        return s;
    s.p50 = h.quantile(0.50);
    s.p95 = h.quantile(0.95);
    s.p99 = h.quantile(0.99);
    s.meanUs = h.mean();
    s.maxUs = h.maxValue();
    return s;
}

/** Rebuild `label value -> counter value` from one counter family. */
std::map<uint32_t, uint64_t>
familyToMap(const obs::Registry &reg, const std::string &family,
            const char *label)
{
    std::map<uint32_t, uint64_t> out;
    reg.forEach([&](const obs::MetricKey &key,
                    const obs::Registry::Entry &e) {
        if (key.name != family || e.kind != obs::MetricKind::Counter)
            return;
        const auto it = key.labels.find(label);
        if (it == key.labels.end())
            return;
        out[static_cast<uint32_t>(
            std::strtoul(it->second.c_str(), nullptr, 10))] =
            e.counter->value();
    });
    return out;
}

} // namespace

ServerStats::ServerStats()
    : reg(std::make_unique<obs::Registry>())
{
    const std::vector<uint64_t> &bounds = obs::latencyBoundsUs();
    infLatUs = &reg->histogram(
        kInfLat, bounds, {},
        "Inference request latency (arrival to done, us)");
    updLatUs = &reg->histogram(
        kUpdLat, bounds, {},
        "Update application latency (arrival to done, us)");
    infRequests = &reg->counter("igcn_serve_inference_requests_total",
                                {}, "Completed inference requests");
    infBatches = &reg->counter("igcn_serve_inference_batches_total",
                               {}, "Dispatched inference batches");
    updBatches = &reg->counter("igcn_serve_update_batches_total", {},
                               "Update applications");
    updCoalesced = &reg->counter("igcn_serve_updates_coalesced_total",
                                 {}, "Update requests coalesced");
    epochs = &reg->counter("igcn_serve_epochs_published_total", {},
                           "Graph epochs published");
    edgesAdded = &reg->counter("igcn_serve_edges_applied_total", {},
                               "Edges added to the live graph");
    edgesDropped = &reg->counter("igcn_serve_edges_removed_total", {},
                                 "Edges removed from the live graph");
    edgesInvalid =
        &reg->counter("igcn_serve_edges_skipped_invalid_total", {},
                      "Malformed update events dropped");
    edgesNoop = &reg->counter("igcn_serve_edges_skipped_noop_total",
                              {}, "No-op update events skipped");
    interleaveCount =
        &reg->counter("igcn_serve_interleaves_total", {},
                      "Inference <-> update transitions");
    aggregatedRows =
        &reg->counter("igcn_serve_aggregated_rows_total", {},
                      "A_hat rows aggregated, all layers");
    staleServeCount =
        &reg->counter("igcn_serve_stale_serves_total", {},
                      "Requests served a non-fresh epoch");
    strictViolations = &reg->counter(
        "igcn_serve_strict_deadline_violations_total", {},
        "Strict-freshness requests started past their deadline");
    aggHits = &reg->counter("igcn_serve_agg_cache_hits_total", {},
                            "Island aggregates served from cache");
    aggMisses =
        &reg->counter("igcn_serve_agg_cache_misses_total", {},
                      "Island cache lookups that fell through");
    aggFills = &reg->counter("igcn_serve_agg_cache_fills_total", {},
                             "Island aggregates inserted");
    aggEvictions =
        &reg->counter("igcn_serve_agg_cache_evictions_total", {},
                      "Cache entries evicted by the byte budget");
    aggInvalidated =
        &reg->counter("igcn_serve_agg_cache_invalidated_total", {},
                      "Cache entries dropped by epoch advance");
    aggClears = &reg->counter("igcn_serve_agg_cache_clears_total",
                              {}, "Whole-cache drops (lineage gap)");
    aggBytes = &reg->gauge("igcn_serve_agg_cache_bytes", {},
                           "Current cache payload bytes");
    aggEntries = &reg->gauge("igcn_serve_agg_cache_entries", {},
                             "Current cache entry count");
    queueDepth = &reg->gauge("igcn_serve_queue_depth", {},
                             "Waiting-queue depth after admission");
    queueDepthMax = &reg->gauge("igcn_serve_queue_depth_max", {},
                                "Peak waiting-queue depth");
}

void
ServerStats::reset()
{
    // In-place value reset: registration (and therefore every cached
    // pointer, here and in external registry() holders) survives.
    reg->resetValues();
    firstArrivalUs = ~uint64_t{0};
    lastDoneUs = 0;
    lastKind = -1;
    lastAgg = AggCacheStats{};
}

ServerStats::TenantCells &
ServerStats::tenantCells(uint32_t tenant)
{
    auto it = tenantCache.find(tenant);
    if (it != tenantCache.end())
        return it->second;
    const obs::Labels labels = tenantLabels(tenant);
    TenantCells cells;
    cells.admitted =
        &reg->counter(kAdmitted, labels, "Requests admitted");
    cells.rejected = &reg->counter(
        kRejected, labels, "Requests rejected (token budget)");
    cells.overloaded = &reg->counter(
        kOverloaded, labels, "Requests shed (queue at capacity)");
    cells.expired = &reg->counter(
        kExpired, labels, "Requests dropped (deadline passed)");
    cells.shedStale = &reg->counter(
        kShedStale, labels, "Requests dropped (freshness blocked)");
    cells.served = &reg->counter(kServed, labels, "Requests served");
    cells.latUs = &reg->histogram(kTenantLat, obs::latencyBoundsUs(),
                                  labels, "Served latency (us)");
    return tenantCache.emplace(tenant, cells).first->second;
}

void
ServerStats::recordInference(const InferenceResult &r)
{
    const uint64_t lat = r.doneUs - r.arrivalUs;
    infLatUs->observe(lat);
    infRequests->inc();
    firstArrivalUs = std::min(firstArrivalUs, r.arrivalUs);
    lastDoneUs = std::max(lastDoneUs, r.doneUs);

    TenantCells &t = tenantCells(r.tenant);
    t.served->inc();
    t.latUs->observe(lat);
    reg->counter(kStaleness,
                 {{"epochs_behind", std::to_string(r.epochsBehind)}},
                 "Served requests by epochs-behind at serve time")
        .inc();
    if (r.epochsBehind > 0)
        staleServeCount->inc();
    if (r.freshness == Freshness::Strict && r.deadlineUs != 0 &&
        r.startUs > r.deadlineUs)
        strictViolations->inc();
}

void
ServerStats::recordAdmission(uint32_t tenant)
{
    tenantCells(tenant).admitted->inc();
}

void
ServerStats::recordRejection(const Rejection &r)
{
    TenantCells &t = tenantCells(r.tenant);
    switch (r.error) {
    case ServeError::Rejected:
        t.rejected->inc();
        break;
    case ServeError::Overloaded:
        t.overloaded->inc();
        break;
    case ServeError::Expired:
        t.expired->inc();
        break;
    case ServeError::ShedStale:
        t.shedStale->inc();
        break;
    case ServeError::None:
        break;
    }
}

void
ServerStats::recordQueueDepth(size_t depth)
{
    queueDepth->set(static_cast<int64_t>(depth));
    queueDepthMax->setMax(static_cast<int64_t>(depth));
}

void
ServerStats::recordInferenceBatch(const BatchExecInfo &info)
{
    infBatches->inc();
    reg->counter(kBatchSize,
                 {{"size", std::to_string(info.targets)}},
                 "Inference batches by batch size")
        .inc();
    aggregatedRows->add(info.aggregatedRows());
    const int kind = static_cast<int>(RequestKind::Inference);
    if (lastKind >= 0 && lastKind != kind)
        interleaveCount->inc();
    lastKind = kind;
}

void
ServerStats::recordAggCache(const AggCacheStats &s)
{
    aggHits->add(s.hits - lastAgg.hits);
    aggMisses->add(s.misses - lastAgg.misses);
    aggFills->add(s.fills - lastAgg.fills);
    aggEvictions->add(s.evictions - lastAgg.evictions);
    aggInvalidated->add(s.invalidated - lastAgg.invalidated);
    aggClears->add(s.clears - lastAgg.clears);
    aggBytes->set(static_cast<int64_t>(s.bytes));
    aggEntries->set(static_cast<int64_t>(s.entries));
    lastAgg = s;
}

void
ServerStats::recordUpdate(const UpdateResult &r)
{
    updLatUs->observe(r.doneUs - r.arrivalUs);
    updBatches->inc();
    updCoalesced->add(r.coalesced);
    edgesAdded->add(r.edgesApplied);
    edgesDropped->add(r.edgesRemoved);
    edgesInvalid->add(r.edgesSkippedInvalid);
    edgesNoop->add(r.edgesSkippedNoop);
    if (r.edgesApplied > 0 || r.edgesRemoved > 0)
        epochs->inc();
    firstArrivalUs = std::min(firstArrivalUs, r.arrivalUs);
    lastDoneUs = std::max(lastDoneUs, r.doneUs);
    const int kind = static_cast<int>(RequestKind::Update);
    if (lastKind >= 0 && lastKind != kind)
        interleaveCount->inc();
    lastKind = kind;
}

LatencySummary
ServerStats::inferenceLatency() const
{
    return summarize(*infLatUs);
}

LatencySummary
ServerStats::updateLatency() const
{
    return summarize(*updLatUs);
}

LatencySummary
ServerStats::tenantLatency(uint32_t tenant) const
{
    const obs::Histogram *h =
        reg->findHistogram(kTenantLat, tenantLabels(tenant));
    return h ? summarize(*h) : LatencySummary{};
}

std::map<uint32_t, TenantStats>
ServerStats::tenantStats() const
{
    std::map<uint32_t, TenantStats> out;
    struct FamilyField
    {
        const char *family;
        uint64_t TenantStats::*field;
    };
    const FamilyField fields[] = {
        {kAdmitted, &TenantStats::admitted},
        {kRejected, &TenantStats::rejected},
        {kOverloaded, &TenantStats::overloaded},
        {kExpired, &TenantStats::expired},
        {kShedStale, &TenantStats::shedStale},
        {kServed, &TenantStats::served},
    };
    for (const FamilyField &f : fields)
        for (const auto &[id, v] : familyToMap(*reg, f.family, "tenant"))
            out[id].*f.field = v;
    return out;
}

std::map<uint32_t, uint64_t>
ServerStats::stalenessHistogram() const
{
    return familyToMap(*reg, kStaleness, "epochs_behind");
}

std::map<uint32_t, uint64_t>
ServerStats::batchSizeHistogram() const
{
    return familyToMap(*reg, kBatchSize, "size");
}

uint64_t
ServerStats::admittedRequests() const
{
    return reg->counterFamilyTotal(kAdmitted);
}

uint64_t
ServerStats::rejectedRequests() const
{
    return reg->counterFamilyTotal(kRejected);
}

uint64_t
ServerStats::overloadedRequests() const
{
    return reg->counterFamilyTotal(kOverloaded);
}

uint64_t
ServerStats::expiredRequests() const
{
    return reg->counterFamilyTotal(kExpired);
}

uint64_t
ServerStats::shedStaleRequests() const
{
    return reg->counterFamilyTotal(kShedStale);
}

uint64_t
ServerStats::shedRequests() const
{
    return rejectedRequests() + overloadedRequests();
}

double
ServerStats::shedRate() const
{
    const uint64_t rejected = rejectedRequests();
    const uint64_t overloaded = overloadedRequests();
    const uint64_t refused = rejected + overloaded +
                             expiredRequests() + shedStaleRequests();
    const uint64_t total =
        admittedRequests() + rejected + overloaded;
    if (total == 0)
        return 0.0;
    return static_cast<double>(refused) / static_cast<double>(total);
}

uint64_t
ServerStats::maxQueueDepth() const
{
    return static_cast<uint64_t>(queueDepthMax->value());
}

uint64_t
ServerStats::strictDeadlineViolations() const
{
    return strictViolations->value();
}

uint64_t
ServerStats::staleServes() const
{
    return staleServeCount->value();
}

double
ServerStats::throughputRps() const
{
    if (infLatUs->count() == 0 || lastDoneUs <= firstArrivalUs)
        return 0.0;
    return static_cast<double>(infLatUs->count()) /
           (static_cast<double>(lastDoneUs - firstArrivalUs) * 1e-6);
}

uint64_t
ServerStats::inferenceRequests() const
{
    return infRequests->value();
}

uint64_t
ServerStats::inferenceBatches() const
{
    return infBatches->value();
}

uint64_t
ServerStats::updateApplications() const
{
    return updBatches->value();
}

uint64_t
ServerStats::updatesCoalesced() const
{
    return updCoalesced->value();
}

uint64_t
ServerStats::epochsPublished() const
{
    return epochs->value();
}

uint64_t
ServerStats::edgesApplied() const
{
    return edgesAdded->value();
}

uint64_t
ServerStats::edgesRemoved() const
{
    return edgesDropped->value();
}

uint64_t
ServerStats::edgesSkippedInvalid() const
{
    return edgesInvalid->value();
}

uint64_t
ServerStats::edgesSkippedNoop() const
{
    return edgesNoop->value();
}

uint64_t
ServerStats::interleaves() const
{
    return interleaveCount->value();
}

double
ServerStats::meanBatchSize() const
{
    if (infBatches->value() == 0)
        return 0.0;
    return static_cast<double>(infRequests->value()) /
           static_cast<double>(infBatches->value());
}

uint64_t
ServerStats::aggCacheHits() const
{
    return aggHits->value();
}

uint64_t
ServerStats::aggCacheMisses() const
{
    return aggMisses->value();
}

uint64_t
ServerStats::aggCacheFills() const
{
    return aggFills->value();
}

uint64_t
ServerStats::aggCacheEvictions() const
{
    return aggEvictions->value();
}

uint64_t
ServerStats::aggCacheInvalidated() const
{
    return aggInvalidated->value();
}

uint64_t
ServerStats::aggCacheBytes() const
{
    return static_cast<uint64_t>(aggBytes->value());
}

uint64_t
ServerStats::aggCacheEntries() const
{
    return static_cast<uint64_t>(aggEntries->value());
}

double
ServerStats::aggCacheHitRate() const
{
    const uint64_t lookups = aggHits->value() + aggMisses->value();
    if (lookups == 0)
        return 0.0;
    return static_cast<double>(aggHits->value()) /
           static_cast<double>(lookups);
}

double
ServerStats::meanAggregatedRows() const
{
    if (infBatches->value() == 0)
        return 0.0;
    return static_cast<double>(aggregatedRows->value()) /
           static_cast<double>(infBatches->value());
}

std::string
ServerStats::summary() const
{
    const LatencySummary inf = inferenceLatency();
    const LatencySummary upd = updateLatency();
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "inference: %llu requests in %llu batches (mean %.1f/batch)\n"
        "latency us: p50 %.0f  p95 %.0f  p99 %.0f  mean %.1f  max %llu\n"
        "throughput: %.0f req/s (server-clock makespan)\n"
        "updates: %llu applications (%llu requests coalesced, "
        "%llu edges added, %llu removed, %llu epochs; "
        "skipped %llu invalid + %llu no-op)\n"
        "update latency us: p50 %.0f  p99 %.0f\n"
        "interleaves: %llu  mean aggregated rows: %.1f per batch\n",
        static_cast<unsigned long long>(inf.count),
        static_cast<unsigned long long>(infBatches->value()),
        meanBatchSize(), inf.p50,
        inf.p95, inf.p99, inf.meanUs,
        static_cast<unsigned long long>(inf.maxUs), throughputRps(),
        static_cast<unsigned long long>(updBatches->value()),
        static_cast<unsigned long long>(updCoalesced->value()),
        static_cast<unsigned long long>(edgesAdded->value()),
        static_cast<unsigned long long>(edgesDropped->value()),
        static_cast<unsigned long long>(epochs->value()),
        static_cast<unsigned long long>(edgesInvalid->value()),
        static_cast<unsigned long long>(edgesNoop->value()),
        upd.p50, upd.p99,
        static_cast<unsigned long long>(interleaveCount->value()),
        meanAggregatedRows());
    std::string out = buf;
    if (aggHits->value() + aggMisses->value() > 0) {
        std::snprintf(
            buf, sizeof(buf),
            "agg cache: %.1f%% hit rate (%llu hits, %llu misses), "
            "%llu fills, %llu evictions, %llu invalidated, "
            "%llu entries / %llu bytes resident\n",
            100.0 * aggCacheHitRate(),
            static_cast<unsigned long long>(aggHits->value()),
            static_cast<unsigned long long>(aggMisses->value()),
            static_cast<unsigned long long>(aggFills->value()),
            static_cast<unsigned long long>(aggEvictions->value()),
            static_cast<unsigned long long>(aggInvalidated->value()),
            static_cast<unsigned long long>(aggEntries->value()),
            static_cast<unsigned long long>(aggBytes->value()));
        out += buf;
    }
    const uint64_t admitted = admittedRequests();
    const uint64_t rejected = rejectedRequests();
    const uint64_t overloaded = overloadedRequests();
    if (admitted + rejected + overloaded > 0) {
        std::snprintf(
            buf, sizeof(buf),
            "admission: %llu admitted, %llu rejected (budget), "
            "%llu overloaded (queue), %llu expired, %llu shed-stale "
            "(shed rate %.1f%%)\n"
            "staleness: %llu stale serves, max queue depth %llu, "
            "strict deadline violations %llu\n",
            static_cast<unsigned long long>(admitted),
            static_cast<unsigned long long>(rejected),
            static_cast<unsigned long long>(overloaded),
            static_cast<unsigned long long>(expiredRequests()),
            static_cast<unsigned long long>(shedStaleRequests()),
            100.0 * shedRate(),
            static_cast<unsigned long long>(staleServeCount->value()),
            static_cast<unsigned long long>(maxQueueDepth()),
            static_cast<unsigned long long>(strictViolations->value()));
        out += buf;
    }
    return out;
}

std::string
ServerStats::rejectionTable() const
{
    const std::map<uint32_t, TenantStats> tenants = tenantStats();
    if (tenants.empty())
        return "";
    std::string out =
        "tenant   admitted rejected overload  expired shedstale "
        "  served    p99us\n";
    char buf[256];
    for (const auto &[tenant, t] : tenants) {
        const LatencySummary lat = tenantLatency(tenant);
        std::snprintf(buf, sizeof(buf),
                      "%-8u %8llu %8llu %8llu %8llu %9llu %8llu %8.0f\n",
                      tenant,
                      static_cast<unsigned long long>(t.admitted),
                      static_cast<unsigned long long>(t.rejected),
                      static_cast<unsigned long long>(t.overloaded),
                      static_cast<unsigned long long>(t.expired),
                      static_cast<unsigned long long>(t.shedStale),
                      static_cast<unsigned long long>(t.served),
                      lat.p99);
        out += buf;
    }
    return out;
}

} // namespace igcn::serve
