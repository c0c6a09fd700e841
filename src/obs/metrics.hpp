/**
 * @file
 * The metrics registry (DESIGN.md section 8): named counters, gauges,
 * fixed-boundary histograms, and per-worker sharded counters, all
 * owned by a Registry keyed on (name, ordered label set) so every
 * snapshot iterates in one deterministic order.
 *
 * Thread model, matching the determinism contract:
 *
 *  - Counter / Gauge are relaxed atomics: safe from any thread, and
 *    thread-exact whenever the *set of increments* is thread-exact
 *    (which the serving loop and the static-partitioned kernels
 *    guarantee — the same events happen at any IGCN_THREADS).
 *  - ShardedCounter gives each pool worker its own cache-line slot;
 *    value() folds the shards in worker-index order, the same
 *    per-worker-buffer-then-ordered-merge discipline of the pool's
 *    static partitioning (thread_pool.hpp).
 *  - Histogram is deliberately *not* atomic: it is single-writer
 *    (the serving scheduler thread owns every serve histogram).
 *    Cross-thread recording uses per-worker Histogram instances
 *    merged in worker-index order via merge() — bit-identical to the
 *    sequential recording because bucket counts, sum, min and max
 *    are all order-independent integers.
 *
 * Registration is mutex-guarded; re-registering an existing
 * (name, labels) key returns the existing metric (kind-checked).
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/thread_annotations.hpp"

namespace igcn::obs {

/** Ordered label set; map order makes exposition deterministic. */
using Labels = std::map<std::string, std::string>;

/** Monotonic event count. */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        v.fetch_add(n, std::memory_order_relaxed);
    }

    void inc() { add(1); }

    uint64_t value() const { return v.load(std::memory_order_relaxed); }

    /** Zero the count (run reset; see Registry::resetValues). */
    void reset() { v.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v{0};
};

/** Last-value (or extremum-tracked) instantaneous measurement. */
class Gauge
{
  public:
    void set(int64_t x) { v.store(x, std::memory_order_relaxed); }

    void
    add(int64_t n)
    {
        v.fetch_add(n, std::memory_order_relaxed);
    }

    /** Raise to x if x is larger (running maximum). */
    void
    setMax(int64_t x)
    {
        int64_t cur = v.load(std::memory_order_relaxed);
        while (x > cur &&
               !v.compare_exchange_weak(cur, x,
                                        std::memory_order_relaxed))
            ;
    }

    /** Lower to x if x is smaller (running minimum). */
    void
    setMin(int64_t x)
    {
        int64_t cur = v.load(std::memory_order_relaxed);
        while (x < cur &&
               !v.compare_exchange_weak(cur, x,
                                        std::memory_order_relaxed))
            ;
    }

    int64_t value() const { return v.load(std::memory_order_relaxed); }

    /** Back to the initial 0 (run reset). */
    void reset() { v.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v{0};
};

/**
 * Counter with one cache-line-padded slot per pool worker. Workers
 * add to their own slot with no contention; value() folds the slots
 * in worker-index order (the contract's canonical merge order).
 */
class ShardedCounter
{
  public:
    /** shards must cover the largest worker index ever used; the
     *  pool clamps IGCN_THREADS to 256. */
    explicit ShardedCounter(int shards = 256)
        : slots(static_cast<size_t>(shards < 1 ? 1 : shards))
    {}

    void
    add(int worker, uint64_t n = 1)
    {
        slots[static_cast<size_t>(worker) % slots.size()].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Shards merged in worker-index order. */
    uint64_t
    value() const
    {
        uint64_t total = 0;
        for (const Slot &s : slots)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

    uint64_t
    shard(int worker) const
    {
        return slots[static_cast<size_t>(worker) % slots.size()].v.load(
            std::memory_order_relaxed);
    }

    int numShards() const { return static_cast<int>(slots.size()); }

    /** Zero every shard (run reset; not concurrent with add()). */
    void
    reset()
    {
        for (Slot &s : slots)
            s.v.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Slot
    {
        std::atomic<uint64_t> v{0};
    };
    std::vector<Slot> slots;
};

/**
 * Fixed-boundary histogram with Prometheus `le` semantics: bucket i
 * counts observations v <= bounds[i] (and > bounds[i-1]); one
 * implicit +Inf bucket catches the overflow. Memory is
 * bounds.size()+1 integers regardless of traffic — the bounded
 * replacement for ServerStats' stored-all-samples vectors. Exact sum,
 * count, min and max are tracked alongside, so means and maxima stay
 * exact; quantile() interpolates within the containing bucket and is
 * therefore accurate to one bucket width (quantileErrorBound()).
 *
 * Single-writer by contract (see file comment); copyable so
 * per-worker instances can be folded with merge().
 */
class Histogram
{
  public:
    /** bounds: strictly ascending upper bounds. */
    explicit Histogram(std::vector<uint64_t> upper_bounds)
        : bounds(std::move(upper_bounds)),
          buckets(bounds.size() + 1, 0)
    {
        for (size_t i = 1; i < bounds.size(); ++i)
            if (bounds[i] <= bounds[i - 1])
                throw std::invalid_argument(
                    "Histogram bounds must be strictly ascending");
    }

    void
    observe(uint64_t v)
    {
        buckets[bucketIndex(v)]++;
        total++;
        sumValues += v;
        if (total == 1) {
            minSeen = v;
            maxSeen = v;
        } else {
            minSeen = v < minSeen ? v : minSeen;
            maxSeen = v > maxSeen ? v : maxSeen;
        }
    }

    /** Index of the bucket v falls in (le semantics). */
    size_t
    bucketIndex(uint64_t v) const
    {
        size_t lo = 0, hi = bounds.size();
        while (lo < hi) {
            const size_t mid = lo + (hi - lo) / 2;
            if (v <= bounds[mid])
                hi = mid;
            else
                lo = mid + 1;
        }
        return lo; // == bounds.size() -> +Inf bucket
    }

    uint64_t count() const { return total; }
    uint64_t sum() const { return sumValues; }
    uint64_t minValue() const { return total ? minSeen : 0; }
    uint64_t maxValue() const { return total ? maxSeen : 0; }

    double
    mean() const
    {
        return total == 0 ? 0.0
                          : static_cast<double>(sumValues) /
                                static_cast<double>(total);
    }

    size_t numBuckets() const { return buckets.size(); }
    uint64_t bucketCount(size_t i) const { return buckets[i]; }
    const std::vector<uint64_t> &upperBounds() const { return bounds; }

    /**
     * Rank-interpolated quantile estimate, clamped to the observed
     * [min, max]. Off from the exact nearest-rank value by at most
     * the width of the containing bucket.
     *
     * Degenerate counts are pinned contract, not clamp accidents
     * (tests/test_obs.cpp): an empty histogram returns 0.0 for every
     * q, and a single-sample histogram returns that sample exactly
     * for every q — both with quantileErrorBound() == 0.
     */
    double
    quantile(double q) const
    {
        if (total == 0)
            return 0.0;
        if (total == 1)
            return static_cast<double>(minSeen);
        q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
        const double target = q * static_cast<double>(total);
        uint64_t cum = 0;
        for (size_t i = 0; i < buckets.size(); ++i) {
            const uint64_t in_bucket = buckets[i];
            if (in_bucket == 0)
                continue;
            const double cum_after =
                static_cast<double>(cum + in_bucket);
            if (cum_after >= target) {
                const auto [lower, upper] = bucketRange(i);
                const double pos =
                    (target - static_cast<double>(cum)) /
                    static_cast<double>(in_bucket);
                double est = static_cast<double>(lower) +
                             pos * static_cast<double>(upper - lower);
                est = std::max(est, static_cast<double>(minSeen));
                est = std::min(est, static_cast<double>(maxSeen));
                return est;
            }
            cum += in_bucket;
        }
        return static_cast<double>(maxSeen);
    }

    /** Width of the bucket containing quantile q (the estimate's
     *  worst-case error vs. the exact nearest-rank value). 0 at
     *  count <= 1: quantile() is exact there by contract. */
    double
    quantileErrorBound(double q) const
    {
        if (total <= 1)
            return 0.0;
        q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
        const double target = q * static_cast<double>(total);
        uint64_t cum = 0;
        for (size_t i = 0; i < buckets.size(); ++i) {
            cum += buckets[i];
            if (buckets[i] > 0 &&
                static_cast<double>(cum) >= target) {
                const auto [lower, upper] = bucketRange(i);
                return static_cast<double>(upper - lower);
            }
        }
        return 0.0;
    }

    /** Fold another histogram (same bounds) into this one. Order-
     *  independent, so a worker-index-ordered merge is bit-exact. */
    void
    merge(const Histogram &other)
    {
        if (other.bounds != bounds)
            throw std::invalid_argument(
                "Histogram::merge: mismatched bounds");
        if (other.total == 0)
            return;
        for (size_t i = 0; i < buckets.size(); ++i)
            buckets[i] += other.buckets[i];
        if (total == 0) {
            minSeen = other.minSeen;
            maxSeen = other.maxSeen;
        } else {
            minSeen = std::min(minSeen, other.minSeen);
            maxSeen = std::max(maxSeen, other.maxSeen);
        }
        total += other.total;
        sumValues += other.sumValues;
    }

    /** Back to the freshly constructed state, keeping the bounds
     *  (run reset; single-writer, like observe()). */
    void
    reset()
    {
        std::fill(buckets.begin(), buckets.end(), 0);
        total = 0;
        sumValues = 0;
        minSeen = 0;
        maxSeen = 0;
    }

  private:
    /** [lower, upper] value range modeled for bucket i. */
    std::pair<uint64_t, uint64_t>
    bucketRange(size_t i) const
    {
        const uint64_t lower = i == 0 ? 0 : bounds[i - 1];
        const uint64_t upper =
            i < bounds.size() ? bounds[i] : std::max(maxSeen, lower);
        return {lower, std::max(upper, lower)};
    }

    std::vector<uint64_t> bounds;
    std::vector<uint64_t> buckets;
    uint64_t total = 0;
    uint64_t sumValues = 0;
    uint64_t minSeen = 0;
    uint64_t maxSeen = 0;
};

/** Default latency bucket bounds: 1-2-5 per decade, 1us..10s. */
const std::vector<uint64_t> &latencyBoundsUs();

/** What a registry entry is (drives exposition formatting). */
enum class MetricKind : uint8_t
{
    Counter,
    Gauge,
    Histogram,
    ShardedCounter,
};

/** Name + ordered labels; the registry's deterministic sort key. */
struct MetricKey
{
    std::string name;
    Labels labels;

    bool
    operator<(const MetricKey &o) const
    {
        if (name != o.name)
            return name < o.name;
        return labels < o.labels;
    }
};

/**
 * Owns every metric of one accounting surface (the server's run
 * stats, or the process-wide runtime/kernel registry). Metrics are
 * heap-allocated, so references returned by the registration calls
 * stay valid for the registry's lifetime. Iteration (forEach,
 * exporters) walks entries in (name, labels) order — deterministic
 * by construction.
 */
class Registry
{
  public:
    struct Entry
    {
        MetricKind kind = MetricKind::Counter;
        std::string help;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        std::unique_ptr<ShardedCounter> sharded;
    };

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Get-or-create; throws std::logic_error on a kind clash. */
    Counter &counter(const std::string &name,
                     const Labels &labels = {},
                     const std::string &help = "");
    Gauge &gauge(const std::string &name, const Labels &labels = {},
                 const std::string &help = "");
    Histogram &histogram(const std::string &name,
                         const std::vector<uint64_t> &bounds,
                         const Labels &labels = {},
                         const std::string &help = "");
    ShardedCounter &sharded(const std::string &name,
                            const Labels &labels = {},
                            const std::string &help = "");

    /** Existing metric or nullptr (no creation; any labels). */
    const Counter *findCounter(const std::string &name,
                               const Labels &labels = {}) const;
    const Gauge *findGauge(const std::string &name,
                           const Labels &labels = {}) const;
    const Histogram *findHistogram(const std::string &name,
                                   const Labels &labels = {}) const;

    /** Sum of a counter family's values over every label set. */
    uint64_t counterFamilyTotal(const std::string &name) const;

    /**
     * Zero every metric's recorded values in place. Registration
     * survives: every pointer or reference previously returned stays
     * valid and keeps pointing at the (now zeroed) metric — this is
     * what makes a run reset safe for callers that cache metric
     * pointers (serve::ServerStats::reset). Not concurrent with
     * recording.
     */
    void resetValues();

    /** Visit every entry in (name, labels) order. */
    void forEach(const std::function<void(const MetricKey &,
                                          const Entry &)> &fn) const;

    size_t size() const;

  private:
    Entry &getOrCreate(const MetricKey &key, MetricKind kind,
                       const std::string &help)
        IGCN_REQUIRES(mutex);

    mutable Mutex mutex;
    std::map<MetricKey, Entry> entries IGCN_GUARDED_BY(mutex);
};

} // namespace igcn::obs
