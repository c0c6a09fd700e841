/**
 * @file
 * Golden fingerprints of islandization results, shared by the
 * locator goldens (test_parallel_parity) and the incremental-update
 * golden (test_fuzz_incremental).
 */

#pragma once

#include <cstdint>
#include <ranges>
#include <type_traits>

#include "core/island.hpp"

namespace igcn {

/**
 * FNV-1a over a stream of integers. Each value is fed field by field,
 * least-significant byte first, so the hash is independent of struct
 * padding and host byte order.
 */
class Fnv1a
{
  public:
    template <typename T>
    void
    add(T v)
    {
        uint64_t bits;
        if constexpr (std::is_enum_v<T>)
            bits = static_cast<uint64_t>(
                static_cast<std::underlying_type_t<T>>(v));
        else
            bits = static_cast<uint64_t>(v);
        for (size_t i = 0; i < sizeof(T); ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }

    /** The element count, then every element. */
    template <std::ranges::sized_range R>
    void
    addAll(const R &vs)
    {
        add(static_cast<uint64_t>(std::ranges::size(vs)));
        for (const auto &v : vs)
            add(v);
    }

    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ull;
};

/** Feed every field of an islandization result to f. */
inline void
addResult(Fnv1a &f, const IslandizationResult &r)
{
    f.add(static_cast<uint64_t>(r.islands.size()));
    for (const Island &isl : r.islands) {
        f.addAll(isl.nodes);
        f.addAll(isl.hubs);
        f.add(isl.round);
        f.add(isl.edgesScanned);
    }
    f.add(static_cast<uint64_t>(r.rounds.size()));
    for (const RoundInfo &ri : r.rounds) {
        f.add(ri.threshold);
        f.add(ri.nodesChecked);
        f.add(ri.hubsDetected);
        f.add(ri.edgesScanned);
        f.add(ri.islandsFound);
    }
    f.add(static_cast<uint64_t>(r.taskTrace.size()));
    for (const TaskTrace &t : r.taskTrace) {
        f.add(t.round);
        f.add(t.outcome);
        f.add(t.edgesScanned);
        f.add(t.hubDegree);
    }
    f.addAll(r.role);
    f.addAll(r.islandOf);
    f.addAll(r.hubRound);
    f.add(static_cast<uint64_t>(r.interHubEdges.size()));
    for (const Edge &e : r.interHubEdges) {
        f.add(e.first);
        f.add(e.second);
    }
    f.addAll(r.thresholds);
    f.add(r.numRounds);
    const LocatorStats &s = r.stats;
    for (uint64_t v : {s.tasksGenerated, s.tasksDroppedStartVisited,
                       s.tasksDroppedCollision, s.tasksDroppedOversize,
                       s.tasksInterHub, s.islandsFound, s.hubDetectChecks,
                       s.adjListFetches, s.edgesScanned,
                       s.edgesScannedWasted})
        f.add(v);
}

/** Fingerprint of every field of an islandization result. */
inline uint64_t
fingerprint(const IslandizationResult &r)
{
    Fnv1a f;
    addResult(f, r);
    return f.value();
}

} // namespace igcn
