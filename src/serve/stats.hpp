/**
 * @file
 * Serving telemetry: per-request latency distributions, batch-size
 * and staleness accounting, throughput, and admission/shedding
 * counters — all backed by one obs::Registry per run (DESIGN.md
 * section 8), so `igcn serve --metrics-out` exports exactly what the
 * summaries print: there is a single accounting surface.
 *
 * Latency percentiles come from fixed-boundary histograms
 * (obs::latencyBoundsUs, 1-2-5 per decade): memory is bounded under
 * sustained traffic (a few hundred integers per family instead of
 * one uint64 per request), count/sum/mean/max stay exact, and
 * quantiles are rank-interpolated within the containing bucket —
 * off from the exact nearest-rank value by at most one bucket width
 * (tests/test_serving.cpp pins this compat bound).
 *
 * Recording happens on the scheduler thread only (batches complete in
 * dispatch order); accessors are meant for after the run or between
 * batches. Everything recorded is thread-exact: the same events are
 * counted in the same order at any IGCN_THREADS.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "serve/agg_cache.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"

namespace igcn::serve {

/** Latency summary in microseconds. count/mean/max are exact;
 *  p50/p95/p99 are histogram estimates (<= one bucket width off). */
struct LatencySummary
{
    uint64_t count = 0;
    double p50 = 0, p95 = 0, p99 = 0;
    double meanUs = 0;
    uint64_t maxUs = 0;
};

/** Per-tenant admission/shedding snapshot (see tenantStats()). */
struct TenantStats
{
    uint64_t admitted = 0;
    uint64_t rejected = 0;   ///< token bucket empty (over budget)
    uint64_t overloaded = 0; ///< queue at capacity
    uint64_t expired = 0;    ///< dropped: deadline passed waiting
    uint64_t shedStale = 0;  ///< dropped: blocked on freshness
    uint64_t served = 0;

    uint64_t shed() const { return rejected + overloaded; }
    uint64_t dropped() const { return expired + shedStale; }
};

/**
 * Accumulates one serving run's telemetry into an owned registry.
 *
 * A run reset is reset(), never move-assignment: assigning a fresh
 * ServerStats would destroy the old registry, dangling every
 * externally held registry() reference (the CLI's Prometheus export,
 * tests snapshotting between runs) — so the move operations are
 * deleted and reset() zeroes the metrics in place, keeping both the
 * registry object and every cached metric pointer valid
 * (tests/test_serving.cpp pins this under ASan).
 */
class ServerStats
{
  public:
    ServerStats();

    ServerStats(ServerStats &&) = delete;
    ServerStats &operator=(ServerStats &&) = delete;

    /**
     * Zero every recorded value for a new run. In-place: the
     * registry, its registered metrics, and all cached metric
     * pointers (including the per-tenant cells) survive, so
     * recording may continue immediately and references obtained
     * via registry() before the reset stay valid.
     */
    void reset();

    void recordInference(const InferenceResult &r);
    void recordInferenceBatch(const BatchExecInfo &info);
    /**
     * Fold a cumulative AggCacheStats snapshot into the registry.
     * Counters advance by the delta against the previous snapshot
     * (snapshots are monotone within a run; the cache and the stats
     * are reset together at run start), gauges track the current
     * bytes/entries. Call after each inference batch.
     */
    void recordAggCache(const AggCacheStats &s);
    void recordUpdate(const UpdateResult &r);
    /** Record an admitted request (SLO path). */
    void recordAdmission(uint32_t tenant);
    /** Record a refused request (admission or drop). */
    void recordRejection(const Rejection &r);
    /** Track the waiting-queue depth after an admission. */
    void recordQueueDepth(size_t depth);

    LatencySummary inferenceLatency() const;
    LatencySummary updateLatency() const;
    /** Served-latency summary of one tenant. */
    LatencySummary tenantLatency(uint32_t tenant) const;

    /** Per-tenant snapshot, rebuilt from the registry's labeled
     *  counter families. */
    std::map<uint32_t, TenantStats> tenantStats() const;
    /** epochs-behind at serve time -> served request count (exact;
     *  a labeled counter family, not a bucketed histogram). */
    std::map<uint32_t, uint64_t> stalenessHistogram() const;
    /** batch size -> number of inference batches of that size
     *  (exact; labeled counter family). */
    std::map<uint32_t, uint64_t> batchSizeHistogram() const;

    uint64_t admittedRequests() const;
    uint64_t shedRequests() const;
    uint64_t rejectedRequests() const;
    uint64_t overloadedRequests() const;
    uint64_t expiredRequests() const;
    uint64_t shedStaleRequests() const;
    /** Shed + dropped over all submissions seen by admission. */
    double shedRate() const;
    uint64_t maxQueueDepth() const;
    /** Served Strict-freshness requests that started past their
     *  deadline — 0 by construction of drop-expired (CI gates on
     *  it). */
    uint64_t strictDeadlineViolations() const;
    /** Served requests observing a non-fresh epoch. */
    uint64_t staleServes() const;

    /** Completed inference requests / virtual makespan seconds. */
    double throughputRps() const;

    uint64_t inferenceRequests() const;
    uint64_t inferenceBatches() const;
    uint64_t updateApplications() const;
    uint64_t updatesCoalesced() const;
    uint64_t epochsPublished() const;
    uint64_t edgesApplied() const;
    uint64_t edgesRemoved() const;
    /** Malformed update events dropped (out-of-range / self loop). */
    uint64_t edgesSkippedInvalid() const;
    /** Update events with no presence change (benign duplicates). */
    uint64_t edgesSkippedNoop() const;
    /** Inference <-> update transitions in dispatch order. */
    uint64_t interleaves() const;
    double meanBatchSize() const;
    /** A_hat rows aggregated per inference batch, all layers. */
    double meanAggregatedRows() const;

    // Aggregation-cache accessors (all zero when the cache is off).
    uint64_t aggCacheHits() const;
    uint64_t aggCacheMisses() const;
    uint64_t aggCacheFills() const;
    uint64_t aggCacheEvictions() const;
    uint64_t aggCacheInvalidated() const;
    uint64_t aggCacheBytes() const;
    uint64_t aggCacheEntries() const;
    /** hits / (hits + misses); 0 when no lookups happened. */
    double aggCacheHitRate() const;

    /** Multi-line human-readable summary (CLI / bench output). */
    std::string summary() const;

    /** Per-tenant rejection summary table (CLI output); empty string
     *  when no admission decisions were recorded. */
    std::string rejectionTable() const;

    /** The run's metric registry (Prometheus export surface). */
    const obs::Registry &registry() const { return *reg; }

  private:
    /** Cached per-tenant metric cells (hot admission/serve path). */
    struct TenantCells
    {
        obs::Counter *admitted = nullptr;
        obs::Counter *rejected = nullptr;
        obs::Counter *overloaded = nullptr;
        obs::Counter *expired = nullptr;
        obs::Counter *shedStale = nullptr;
        obs::Counter *served = nullptr;
        obs::Histogram *latUs = nullptr;
    };

    TenantCells &tenantCells(uint32_t tenant);

    std::unique_ptr<obs::Registry> reg;

    // Cached hot-path cells; all point into *reg.
    obs::Histogram *infLatUs;
    obs::Histogram *updLatUs;
    obs::Counter *infRequests;
    obs::Counter *infBatches;
    obs::Counter *updBatches;
    obs::Counter *updCoalesced;
    obs::Counter *epochs;
    obs::Counter *edgesAdded;
    obs::Counter *edgesDropped;
    obs::Counter *edgesInvalid;
    obs::Counter *edgesNoop;
    obs::Counter *interleaveCount;
    obs::Counter *aggregatedRows;
    obs::Counter *staleServeCount;
    obs::Counter *strictViolations;
    obs::Counter *aggHits;
    obs::Counter *aggMisses;
    obs::Counter *aggFills;
    obs::Counter *aggEvictions;
    obs::Counter *aggInvalidated;
    obs::Counter *aggClears;
    obs::Gauge *aggBytes;
    obs::Gauge *aggEntries;
    obs::Gauge *queueDepth;
    obs::Gauge *queueDepthMax;
    std::map<uint32_t, TenantCells> tenantCache;

    // Run bounds / interleave state (not metrics: internal markers).
    uint64_t firstArrivalUs = ~uint64_t{0};
    uint64_t lastDoneUs = 0;
    int lastKind = -1; // -1 none, else RequestKind cast
    /** Previous cumulative cache snapshot (delta base). */
    AggCacheStats lastAgg;
};

} // namespace igcn::serve
