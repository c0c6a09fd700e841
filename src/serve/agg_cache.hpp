/**
 * @file
 * Epoch-keyed, dirty-island-invalidated cache of per-island layer-1
 * aggregation results (DESIGN.md section 9).
 *
 * One entry = one island of the current epoch: the *pre-ReLU* layer-1
 * rows (A_hat X W0, the first spmm's output) of the island's member
 * nodes, in Island::nodes order, as the whole-graph forward computes
 * them. Entries are filled from rows the engine computed anyway
 * (never recomputed specially), so a hit substitutes bytes that are
 * bit-identical to what the first layer's pull would have produced —
 * the cache can change *when* a row is computed but never *what* it
 * is.
 *
 * Lineage: the cache stores exactly one epoch at a time. When the
 * applier publishes epoch E+1 with parent E, advanceTo() remaps
 * surviving entries through GraphState::aggProvenance (new island id
 * -> parent id, already intersected with the endpoint dirty sweep)
 * and drops the rest; a lineage gap (fresh state, missed epoch)
 * clears the cache. Eviction is LRU by a deterministic consult tick
 * under a byte budget, so replayed runs evict identically.
 *
 * Thread safety: all methods lock internally. Concurrent use is
 * correct (lookups copy under the lock and are epoch-checked, so a
 * racing advance yields a miss, never wrong bytes); determinism of
 * the hit/evict sequence is only claimed for the single-threaded
 * consult order of virtual-clock replay.
 */

#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "runtime/thread_annotations.hpp"

namespace igcn::serve {

struct GraphState;

/** Cache knobs (ServerConfig::aggCache). */
struct AggCacheConfig
{
    /** Off by default: the cache is opt-in (CLI --agg-cache). */
    bool enabled = false;
    /** Payload byte budget; LRU eviction keeps usage at or below. */
    size_t maxBytes = 64ull << 20;
};

/** Cumulative counters of one cache lifetime (run). */
struct AggCacheStats
{
    uint64_t hits = 0;        ///< island lookups served from cache
    uint64_t misses = 0;      ///< island lookups that fell through
    uint64_t fills = 0;       ///< entries inserted
    uint64_t evictions = 0;   ///< entries evicted by the byte budget
    uint64_t invalidated = 0; ///< entries dropped by epoch advance
    uint64_t clears = 0;      ///< whole-cache drops (lineage gap)
    uint64_t bytes = 0;       ///< current payload bytes
    uint64_t entries = 0;     ///< current entry count
};

/** See file comment. */
class AggCache
{
  public:
    explicit AggCache(AggCacheConfig cfg);

    /**
     * Move the cache to state's epoch: no-op when already there,
     * provenance remap when the cache holds the state's parent
     * epoch, full clear otherwise (including the first call).
     */
    void advanceTo(const GraphState &state) IGCN_EXCLUDES(mutex);

    /**
     * Raw advance (advanceTo's engine-independent core; the fuzz
     * oracle drives it directly). provenance[newId] is the parent
     * island id whose aggregate is still valid, or kNoParent.
     */
    void advance(uint64_t new_epoch, bool has_parent,
                 uint64_t parent_epoch,
                 std::span<const uint32_t> provenance)
        IGCN_EXCLUDES(mutex);

    static constexpr uint32_t kNoParent = ~uint32_t{0};

    /**
     * Look up an island's entry and copy it into out (exactly
     * expected_floats long). A hit refreshes the entry's LRU tick.
     * Counts a miss when the cache is not at `epoch` (a racing
     * advance), the entry is absent, or its length mismatches —
     * never returns foreign bytes.
     */
    bool lookup(uint64_t epoch, uint32_t island_id,
                size_t expected_floats, float *out)
        IGCN_EXCLUDES(mutex);

    /**
     * Insert an island's rows (dropped silently when the cache moved
     * past `epoch`). Evicts lowest-tick entries until the byte
     * budget holds again.
     */
    void insert(uint64_t epoch, uint32_t island_id,
                std::vector<float> rows) IGCN_EXCLUDES(mutex);

    /** Fresh lifetime: drop every entry, zero the counters (a new
     *  run's reset; not counted as a clear). */
    void reset() IGCN_EXCLUDES(mutex);

    AggCacheStats stats() const IGCN_EXCLUDES(mutex);

    const AggCacheConfig &config() const { return cfg; }

  private:
    struct Entry
    {
        std::vector<float> rows;
        uint64_t tick = 0;
    };

    void dropBytesLocked(const Entry &e) IGCN_REQUIRES(mutex);
    void evictOverBudgetLocked() IGCN_REQUIRES(mutex);

    AggCacheConfig cfg;
    mutable Mutex mutex;
    /** Epoch the entries belong to; meaningless until primed. */
    uint64_t cur IGCN_GUARDED_BY(mutex) = 0;
    bool primed IGCN_GUARDED_BY(mutex) = false;
    uint64_t tick IGCN_GUARDED_BY(mutex) = 0;
    std::map<uint32_t, Entry> entries IGCN_GUARDED_BY(mutex);
    AggCacheStats st IGCN_GUARDED_BY(mutex);
};

} // namespace igcn::serve
