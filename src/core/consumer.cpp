#include "core/consumer.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <type_traits>

#include "runtime/thread_pool.hpp"

namespace igcn {

namespace {

/**
 * Local adjacency bitmap of one island, a view into the compile's
 * flat bit array. Columns (and rows) are ordered [island nodes...,
 * hubs...]: the dense island block comes first so the 1 x k scan
 * windows over it are not diluted by the sparse hub columns (each hub
 * column typically holds one bit per island row). The hub-row x
 * hub-column block is always zero: hub-hub connections are handled
 * by inter-hub tasks.
 */
struct IslandBitmap
{
    uint64_t *bits = nullptr;
    int numNodes = 0;
    int width = 0;
    /** Words per row. */
    int stride = 0;

    uint64_t *row(int r) const
    {
        return bits + static_cast<size_t>(r) * stride;
    }
};

int
wordsPerRow(int width)
{
    return (width + 63) / 64;
}

/** Branch-free popcount, inlined: std::popcount is a libgcc call on
 *  the baseline x86-64 target, which has no POPCNT instruction. */
int
bitCount(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
    return static_cast<int>((x * 0x0101010101010101ull) >> 56);
}

/** Number of set bits in columns [c0, c1) of one bitmap row. */
int
countBits(const uint64_t *row, int c0, int c1)
{
    int total = 0;
    int c = c0;
    while (c < c1) {
        const int lo = c % 64;
        const int take = std::min(c1 - c, 64 - lo);
        const uint64_t mask = (take == 64)
            ? ~uint64_t{0} : (((uint64_t{1} << take) - 1) << lo);
        total += bitCount(row[c / 64] & mask);
        c += take;
    }
    return total;
}

/**
 * Call fn(group, c0, c1, z) for every 1 x k window [c0, c1) of a row
 * holding z > 0 set bits, in ascending column order. Empty windows
 * are never visited. k is an int or a std::integral_constant, so the
 * divisions fold for the adaptive candidates.
 */
template <typename K, typename Fn>
void
forEachWindow(const uint64_t *row, int stride, int width, K k, Fn &&fn)
{
    int wi = 0;
    uint64_t word = stride > 0 ? row[0] : 0;
    while (true) {
        while (word == 0) {
            if (++wi >= stride)
                return;
            word = row[wi];
        }
        const int grp = (wi * 64 + std::countr_zero(word)) / k;
        const int c0 = grp * k;
        const int c1 = std::min(width, c0 + k);
        fn(grp, c0, c1, countBits(row, c0, c1));
        wi = c1 / 64;
        if (wi >= stride)
            return;
        word = row[wi] & (~uint64_t{0} << (c1 % 64));
    }
}

/** The hardware's per-window choice (Sec. 3.3.1): subtract mode
 *  costs one pre-sum add plus one subtraction per clear bit, add mode
 *  one accumulation per set bit; take the cheaper. */
bool
subtractMode(int k_eff, int z)
{
    return k_eff >= 2 && (1 + (k_eff - z)) < z;
}

/** Per-chunk scratch of the compile, reused across its islands. */
struct CompileScratch
{
    std::vector<EdgeId> candRowOps[4];
    std::vector<uint64_t> usedWindows[4];
    std::vector<uint8_t> groupUsed;
    std::vector<int32_t> groupId;
};

/** Op accounting of one island at one k, plus what the plan needs
 *  to allocate for it. */
struct IslandCount
{
    AggOpStats stats;
    uint32_t usedGroups = 0;
    uint32_t usedCols = 0;
};

/** Generic count of one island at a fixed k >= 2; per-row op counts
 *  go to row_ops. */
IslandCount
countAtK(const IslandBitmap &bm, int k, bool lazy_preagg,
         CompileScratch &s, EdgeId *row_ops)
{
    IslandCount out;
    AggOpStats &st = out.stats;
    st.chosenK = k;
    const int num_groups = (bm.width + k - 1) / k;
    s.groupUsed.assign(num_groups, 0);
    uint64_t nonzero_windows = 0;
    for (int r = 0; r < bm.width; ++r) {
        EdgeId ops = 0;
        forEachWindow(bm.row(r), bm.stride, bm.width, k,
                      [&](int grp, int c0, int c1, int z) {
            const int k_eff = c1 - c0;
            nonzero_windows++;
            st.baselineOps += z;
            if (subtractMode(k_eff, z)) {
                ops += 1 + (k_eff - z);
                st.windowsSubtractMode++;
                s.groupUsed[grp] = 1;
            } else {
                ops += z;
            }
        });
        row_ops[r] = ops;
        st.windowOps += ops;
    }
    st.windowsSkipped =
        static_cast<uint64_t>(bm.width) * num_groups - nonzero_windows;
    for (int grp = 0; grp < num_groups; ++grp) {
        const int k_eff = std::min(bm.width, (grp + 1) * k) - grp * k;
        if (s.groupUsed[grp]) {
            out.usedGroups++;
            out.usedCols += k_eff;
        }
        if (k_eff >= 2 && (!lazy_preagg || s.groupUsed[grp]))
            st.preaggOps += k_eff - 1;
    }
    return out;
}

/** The adaptive candidates: their windows tile a 64-bit word. */
constexpr int kCandidates[] = {2, 4, 8, 16};

/** The lowest bit of every k-bit field of a word. */
constexpr uint64_t
fieldLows(int k)
{
    uint64_t m = 0;
    for (int b = 0; b < 64; b += k)
        m |= uint64_t{1} << b;
    return m;
}

/**
 * Running tally of one candidate k over an island's rows. Words are
 * classified SWAR-style: with each k-bit field of a word holding one
 * window's popcount z, a couple of adds and masks flag every non-empty
 * and every subtract-mode window of the word at once.
 */
struct Tally
{
    int k = 0;
    /** The island's last window when it is partial (k_eff < k): its
     *  row word, field mask and width; else partialWord = -1. */
    int partialWord = -1;
    uint64_t partialMask = 0;
    int partialWidth = 0;
    uint64_t windowOps = 0;
    uint64_t nonzero = 0;
    uint64_t subtract = 0;
    /** Per row word: the top bit of every window some row consumes
     *  in subtract mode. */
    uint64_t *used = nullptr;
};

/** Tally one row word's windows from their k-bit popcount fields;
 *  returns their op count. */
template <int K>
uint64_t
tallyWord(Tally &t, uint64_t counts, uint64_t w, int wi)
{
    constexpr uint64_t lows = fieldLows(K);
    constexpr uint64_t tops = lows << (K - 1);
    constexpr uint64_t half = uint64_t{1} << (K - 1);
    // Subtract mode iff 1 + (K - z) < z, i.e. z >= K / 2 + 1.
    constexpr uint64_t sub_from = K / 2 + 1;
    uint64_t ops = 0;
    if (wi == t.partialWord) {
        const int z = bitCount(w & t.partialMask);
        if (z > 0) {
            t.nonzero++;
            if (subtractMode(t.partialWidth, z)) {
                ops += 1 + (t.partialWidth - z);
                t.subtract++;
                t.used[wi] |= t.partialMask & ~(t.partialMask >> 1);
            } else {
                ops += z;
            }
        }
        counts &= ~t.partialMask;
        w &= ~t.partialMask;
    }
    // Adding half - m to a field sets its top bit iff z >= m (fields
    // never carry: z <= K).
    const uint64_t nonzero = (counts + lows * (half - 1)) & tops;
    const uint64_t sub = (counts + lows * (half - sub_from)) & tops;
    t.nonzero += bitCount(nonzero);
    // Add mode costs z, subtract mode K + 1 - z.
    ops += bitCount(w);
    if (sub != 0) {
        const uint64_t sub_cols =
            (sub >> (K - 1)) * ((uint64_t{1} << K) - 1);
        const int num_sub = bitCount(sub);
        t.subtract += num_sub;
        t.used[wi] |= sub;
        ops += (K + 1) * num_sub - 2 * bitCount(w & sub_cols);
    }
    return ops;
}

/**
 * Count one island at every candidate k in one pass over its rows;
 * per-row op counts go to s.candRowOps, popcounts to row_pop.
 */
void
countCandidates(const IslandBitmap &bm, bool lazy_preagg,
                CompileScratch &s, EdgeId *row_pop, IslandCount *out)
{
    Tally t[4];
    for (int c = 0; c < 4; ++c) {
        const int k = kCandidates[c];
        t[c].k = k;
        s.candRowOps[c].resize(bm.width);
        s.usedWindows[c].assign(bm.stride, 0);
        t[c].used = s.usedWindows[c].data();
        const int rem = bm.width % k;
        if (rem != 0) {
            const int c0 = bm.width - rem;
            t[c].partialWord = c0 / 64;
            t[c].partialMask = ((uint64_t{1} << k) - 1) << (c0 % 64);
            t[c].partialWidth = rem;
        }
    }
    uint64_t baseline = 0;
    for (int r = 0; r < bm.width; ++r) {
        const uint64_t *row = bm.row(r);
        uint64_t pop = 0;
        uint64_t ops[4] = {};
        for (int wi = 0; wi < bm.stride; ++wi) {
            const uint64_t w = row[wi];
            if (w == 0)
                continue;
            pop += bitCount(w);
            uint64_t c = w - ((w >> 1) & fieldLows(2));
            ops[0] += tallyWord<2>(t[0], c, w, wi);
            c = (c & fieldLows(4) * 0x3) + ((c >> 2) & fieldLows(4) * 0x3);
            ops[1] += tallyWord<4>(t[1], c, w, wi);
            c = (c + (c >> 4)) & fieldLows(8) * 0xF;
            ops[2] += tallyWord<8>(t[2], c, w, wi);
            c = (c + (c >> 8)) & fieldLows(16) * 0xFF;
            ops[3] += tallyWord<16>(t[3], c, w, wi);
        }
        row_pop[r] = pop;
        baseline += pop;
        for (int c = 0; c < 4; ++c) {
            s.candRowOps[c][r] = ops[c];
            t[c].windowOps += ops[c];
        }
    }
    for (int c = 0; c < 4; ++c) {
        const int k = t[c].k;
        const uint64_t num_groups = (bm.width + k - 1) / k;
        IslandCount &ic = out[c];
        ic.stats.chosenK = k;
        ic.stats.baselineOps = baseline;
        ic.stats.windowOps = t[c].windowOps;
        ic.stats.windowsSkipped = bm.width * num_groups - t[c].nonzero;
        ic.stats.windowsSubtractMode = t[c].subtract;
        for (uint64_t u : s.usedWindows[c])
            ic.usedGroups += bitCount(u);
        const bool partial_used = t[c].partialWord >= 0 &&
            (s.usedWindows[c][t[c].partialWord] & t[c].partialMask);
        const uint32_t rem = t[c].partialWidth;
        ic.usedCols = ic.usedGroups * k - (partial_used ? k - rem : 0);
        if (lazy_preagg) {
            ic.stats.preaggOps = (ic.usedGroups - partial_used) * (k - 1) +
                (partial_used ? rem - 1 : 0);
        } else {
            ic.stats.preaggOps = (bm.width / k) * (k - 1) +
                (rem >= 2 ? rem - 1 : 0);
        }
    }
}

/**
 * Choose the island's k under cfg and count its ops: the only place
 * the Island Consumer's op accounting is decided. A fixed k >= 2 is
 * counted by the generic window walk; otherwise "no removal" (one op
 * per set bit) is the baseline, and adaptive mode also tries k in
 * {2, 4, 8, 16} (skipping k > width except 2), keeping the first
 * strict minimum of optimizedOps().
 */
IslandCount
chooseK(const IslandBitmap &bm, const RedundancyConfig &cfg,
        CompileScratch &s, EdgeId *row_ops)
{
    if (!cfg.adaptiveK && cfg.k >= 2)
        return countAtK(bm, cfg.k, cfg.lazyPreagg, s, row_ops);
    IslandCount cands[4];
    countCandidates(bm, cfg.lazyPreagg, s, row_ops, cands);
    IslandCount best;
    best.stats.baselineOps = cands[0].stats.baselineOps;
    best.stats.windowOps = best.stats.baselineOps;
    int best_c = -1;
    for (int c = 0; c < 4 && cfg.adaptiveK; ++c) {
        if (kCandidates[c] > bm.width && kCandidates[c] != 2)
            continue;
        if (cands[c].stats.optimizedOps() < best.stats.optimizedOps()) {
            best = cands[c];
            best_c = c;
        }
    }
    if (best_c >= 0)
        std::copy(s.candRowOps[best_c].begin(),
                  s.candRowOps[best_c].end(), row_ops);
    return best;
}

/** Call fn with k as a compile-time constant for the adaptive
 *  candidates, else as a plain int. */
template <typename Fn>
void
withK(int k, Fn &&fn)
{
    switch (k) {
      case 2: fn(std::integral_constant<int, 2>{}); break;
      case 4: fn(std::integral_constant<int, 4>{}); break;
      case 8: fn(std::integral_constant<int, 8>{}); break;
      case 16: fn(std::integral_constant<int, 16>{}); break;
      default: fn(k); break;
    }
}

/**
 * Set an island's node rows (neighbors, plus the diagonal with self
 * loops). owner/pos give every island node's island and local
 * column; hubs are the columns after the island nodes.
 */
void
buildNodeRows(const CsrGraph &g, const IslandizationResult &isl,
              uint32_t island_id, bool include_self_loops,
              const std::vector<uint32_t> &owner,
              const std::vector<uint32_t> &pos, const IslandBitmap &bm)
{
    const Island &island = isl.islands[island_id];
    for (NodeId h : island.hubs)
        if (isl.role[h] != NodeRole::Hub)
            throw std::logic_error(
                "island hubs list names a non-hub node");
    for (int i = 0; i < bm.numNodes; ++i) {
        uint64_t *row = bm.row(i);
        for (NodeId nb : g.neighbors(island.nodes[i])) {
            int col;
            if (owner[nb] == island_id) {
                col = static_cast<int>(pos[nb]);
            } else {
                auto it = std::lower_bound(island.hubs.begin(),
                                           island.hubs.end(), nb);
                if (it == island.hubs.end() || *it != nb)
                    throw std::logic_error(
                        "island coverage invariant violated: "
                        "neighbor outside island+hubs");
                col = bm.numNodes +
                    static_cast<int>(it - island.hubs.begin());
            }
            row[col / 64] |= uint64_t{1} << (col % 64);
        }
        if (include_self_loops)
            row[i / 64] |= uint64_t{1} << (i % 64);
    }
}

uint32_t
encodeOp(uint32_t kind, uint32_t index)
{
    return (kind << IslandPlan::kKindShift) | index;
}

} // namespace

IslandPlan
compileIslandPlan(const CsrGraph &g, const IslandizationResult &isl,
                  const RedundancyConfig &cfg, bool include_self_loops)
{
    const NodeId n = g.numNodes();
    if (isl.role.size() != n)
        throw std::invalid_argument("islandization size != node count");
    if (n > IslandPlan::kIndexMask)
        throw std::length_error("graph too large for an island plan");
    KernelRegion region("island_plan_compile");
    ThreadPool &pool = globalPool();

    IslandPlan plan;
    plan.numNodes = n;
    plan.cfg = cfg;
    plan.includeSelfLoops = include_self_loops;
    plan.interHubEdges = isl.interHubEdges;
    for (NodeId v = 0; v < n; ++v)
        if (isl.role[v] == NodeRole::Hub)
            plan.hubIds.push_back(v);

    // Flat layout: island i owns bitmap words [bitBase[i], ...) and
    // rows [rowBase[i], ...) of the per-row arrays.
    const std::vector<Island> &islands = isl.islands;
    const size_t num_islands = islands.size();
    std::vector<size_t> bit_base(num_islands + 1, 0);
    std::vector<size_t> row_base(num_islands + 1, 0);
    for (size_t i = 0; i < num_islands; ++i) {
        const int width = static_cast<int>(islands[i].nodes.size() +
                                           islands[i].hubs.size());
        bit_base[i + 1] = bit_base[i] +
            static_cast<size_t>(width) * wordsPerRow(width);
        row_base[i + 1] = row_base[i] + width;
    }
    std::vector<uint64_t> bits(bit_base[num_islands], 0);
    // Per bitmap row: its op count, then its write offset into ops.
    std::vector<EdgeId> row_ops(row_base[num_islands], 0);
    std::vector<uint32_t> used_groups(num_islands + 1, 0);
    std::vector<uint32_t> used_cols(num_islands + 1, 0);
    plan.islandStats.resize(num_islands);

    auto bitmapOf = [&](size_t i) {
        IslandBitmap bm;
        bm.bits = bits.data() + bit_base[i];
        bm.numNodes = static_cast<int>(islands[i].nodes.size());
        bm.width = static_cast<int>(row_base[i + 1] - row_base[i]);
        bm.stride = wordsPerRow(bm.width);
        return bm;
    };
    auto nodeOf = [&](const Island &island, int c) {
        const size_t nn = island.nodes.size();
        return static_cast<size_t>(c) < nn ? island.nodes[c]
                                           : island.hubs[c - nn];
    };

    // Island membership: every island node's island and local column.
    constexpr uint32_t kNone = IslandizationResult::kNoIsland;
    std::vector<uint32_t> owner(n, kNone), pos(n, 0);
    for (size_t i = 0; i < num_islands; ++i) {
        for (size_t c = 0; c < islands[i].nodes.size(); ++c) {
            owner[islands[i].nodes[c]] = static_cast<uint32_t>(i);
            pos[islands[i].nodes[c]] = static_cast<uint32_t>(c);
        }
    }

    // Hub rows, by hub: one sweep of each hub's adjacency sets its
    // row in every island it borders (rows are disjoint per hub).
    pool.parallelFor(0, plan.hubIds.size(),
                     [&](int, size_t lo, size_t hi) {
        for (size_t h = lo; h < hi; ++h) {
            const NodeId hub = plan.hubIds[h];
            for (NodeId nb : g.neighbors(hub)) {
                const uint32_t i = owner[nb];
                if (i == kNone)
                    continue;
                const std::vector<NodeId> &hubs = islands[i].hubs;
                auto it = std::lower_bound(hubs.begin(), hubs.end(), hub);
                if (it == hubs.end() || *it != hub)
                    continue;
                const IslandBitmap bm = bitmapOf(i);
                uint64_t *row = bm.row(
                    bm.numNodes + static_cast<int>(it - hubs.begin()));
                row[pos[nb] / 64] |= uint64_t{1} << (pos[nb] % 64);
            }
        }
    }, /*min_per_worker=*/8);

    // Island-node rows, k choice and op counts, by island.
    pool.parallelFor(0, num_islands, [&](int, size_t lo, size_t hi) {
        CompileScratch s;
        for (size_t i = lo; i < hi; ++i) {
            const IslandBitmap bm = bitmapOf(i);
            buildNodeRows(g, isl, static_cast<uint32_t>(i),
                          include_self_loops, owner, pos, bm);
            IslandCount c = chooseK(bm, cfg, s,
                                    row_ops.data() + row_base[i]);
            plan.islandStats[i] = c.stats;
            used_groups[i] = c.usedGroups;
            used_cols[i] = c.usedCols;
        }
    }, /*min_per_worker=*/16);

    for (const AggOpStats &st : plan.islandStats)
        plan.totalStats += st;

    // Output-row ranges: a hub row concatenates its bitmap rows in
    // ascending island order.
    plan.opBegin.assign(static_cast<size_t>(n) + 1, 0);
    for (size_t i = 0; i < num_islands; ++i)
        for (size_t r = row_base[i]; r < row_base[i + 1]; ++r)
            plan.opBegin[nodeOf(islands[i],
                                static_cast<int>(r - row_base[i])) + 1] +=
                row_ops[r];
    for (NodeId v = 0; v < n; ++v)
        plan.opBegin[v + 1] += plan.opBegin[v];
    {
        std::vector<EdgeId> next(plan.opBegin.begin(),
                                 plan.opBegin.end() - 1);
        for (size_t i = 0; i < num_islands; ++i) {
            for (size_t r = row_base[i]; r < row_base[i + 1]; ++r) {
                EdgeId &slot = next[nodeOf(
                    islands[i], static_cast<int>(r - row_base[i]))];
                const EdgeId count = row_ops[r];
                row_ops[r] = slot;
                slot += count;
            }
        }
    }
    plan.ops.resize(plan.opBegin[n]);

    // Presum group ids and column offsets, island by island.
    std::exclusive_scan(used_groups.begin(), used_groups.end(),
                        used_groups.begin(), uint32_t{0});
    std::exclusive_scan(used_cols.begin(), used_cols.end(),
                        used_cols.begin(), uint32_t{0});
    const uint32_t num_groups = used_groups[num_islands];
    if (num_groups > IslandPlan::kIndexMask)
        throw std::length_error("too many presum groups for a plan");
    plan.groupBegin.assign(num_groups + 1, 0);
    plan.groupBegin[num_groups] = used_cols[num_islands];
    plan.groupCols.resize(used_cols[num_islands]);

    // Emit every row's ops at its offset, by island. Groups get ids
    // in first-use order within their island.
    pool.parallelFor(0, num_islands, [&](int, size_t lo, size_t hi) {
        CompileScratch s;
        for (size_t i = lo; i < hi; ++i) {
            const Island &island = islands[i];
            const IslandBitmap bm = bitmapOf(i);
            const int k = plan.islandStats[i].chosenK;
            uint32_t next_group = used_groups[i];
            uint32_t next_col = used_cols[i];
            uint32_t *out = nullptr;
            // Ops for the set (or clear) columns of [c0, c1).
            auto emit = [&](const uint64_t *row, int c0, int c1,
                            bool set_bits, uint32_t kind) {
                for (int c = c0; c < c1;) {
                    const int lo_bit = c % 64;
                    const int take = std::min(c1 - c, 64 - lo_bit);
                    const uint64_t mask = (take == 64) ? ~uint64_t{0}
                        : (((uint64_t{1} << take) - 1) << lo_bit);
                    const uint64_t word = row[c / 64];
                    uint64_t cols = (set_bits ? word : ~word) & mask;
                    for (; cols; cols &= cols - 1)
                        *out++ = encodeOp(kind, nodeOf(
                            island, c - lo_bit + std::countr_zero(cols)));
                    c += take;
                }
            };
            if (k >= 2)
                s.groupId.assign((bm.width + k - 1) / k, -1);
            for (int r = 0; r < bm.width; ++r) {
                const uint64_t *row = bm.row(r);
                out = plan.ops.data() + row_ops[row_base[i] + r];
                if (k < 2) {
                    emit(row, 0, bm.width, true, IslandPlan::kAddRow);
                    continue;
                }
                withK(k, [&](auto kk) {
                    forEachWindow(row, bm.stride, bm.width, kk,
                                  [&](int grp, int c0, int c1, int z) {
                        if (!subtractMode(c1 - c0, z)) {
                            emit(row, c0, c1, true, IslandPlan::kAddRow);
                            return;
                        }
                        if (s.groupId[grp] < 0) {
                            s.groupId[grp] =
                                static_cast<int32_t>(next_group);
                            plan.groupBegin[next_group++] = next_col;
                            for (int c = c0; c < c1; ++c)
                                plan.groupCols[next_col++] =
                                    nodeOf(island, c);
                        }
                        *out++ = encodeOp(
                            IslandPlan::kAddPresum,
                            static_cast<uint32_t>(s.groupId[grp]));
                        emit(row, c0, c1, false, IslandPlan::kSubRow);
                    });
                });
            }
        }
    }, /*min_per_worker=*/16);
    return plan;
}

DenseMatrix
replayIslandPlan(const IslandPlan &plan, const DenseMatrix &y,
                 AggOpStats *stats)
{
    if (y.rows() != plan.numNodes)
        throw std::invalid_argument("y row count != node count");
    const size_t channels = y.cols();
    const size_t num_groups = plan.groupBegin.size() - 1;
    ThreadPool &pool = globalPool();
    KernelRegion region("island_aggregate");

    // Pre-aggregation: the group sums subtract-mode windows consume
    // (computed at the tail of the combination phase in hardware).
    DenseMatrix presum(num_groups, channels);
    pool.parallelFor(0, num_groups, [&](int, size_t lo, size_t hi) {
        for (size_t grp = lo; grp < hi; ++grp) {
            float *dst = presum.row(grp);
            for (uint32_t e = plan.groupBegin[grp];
                 e < plan.groupBegin[grp + 1]; ++e) {
                const float *src = y.row(plan.groupCols[e]);
                for (size_t ch = 0; ch < channels; ++ch)
                    dst[ch] += src[ch];
            }
        }
    }, /*min_per_worker=*/64);

    // Every output row has one owner and a fixed op order, so the
    // result does not depend on the worker count. A hub row sums its
    // islands' partials straight into the zeroed row, which is
    // bit-equal to adding one zero-started partial to it: a sum
    // started at +0.0f is never -0.0f, and 0.0f + x == x otherwise.
    DenseMatrix z(plan.numNodes, channels);
    pool.parallelFor(0, plan.numNodes, [&](int, size_t lo, size_t hi) {
        for (size_t v = lo; v < hi; ++v) {
            float *out = z.row(v);
            for (EdgeId e = plan.opBegin[v]; e < plan.opBegin[v + 1];
                 ++e) {
                const uint32_t op = plan.ops[e];
                const uint32_t idx = op & IslandPlan::kIndexMask;
                switch (op >> IslandPlan::kKindShift) {
                  case IslandPlan::kAddRow: {
                    const float *src = y.row(idx);
                    for (size_t ch = 0; ch < channels; ++ch)
                        out[ch] += src[ch];
                    break;
                  }
                  case IslandPlan::kSubRow: {
                    const float *src = y.row(idx);
                    for (size_t ch = 0; ch < channels; ++ch)
                        out[ch] -= src[ch];
                    break;
                  }
                  default: {
                    const float *src = presum.row(idx);
                    for (size_t ch = 0; ch < channels; ++ch)
                        out[ch] += src[ch];
                    break;
                  }
                }
            }
        }
    }, /*min_per_worker=*/64);

    // Inter-hub tasks (push-outer-product order) plus hub self loops.
    for (const auto &[h1, h2] : plan.interHubEdges) {
        const float *y1 = y.row(h1);
        const float *y2 = y.row(h2);
        float *z1 = z.row(h1);
        float *z2 = z.row(h2);
        for (size_t ch = 0; ch < channels; ++ch) {
            z1[ch] += y2[ch];
            z2[ch] += y1[ch];
        }
    }
    if (plan.includeSelfLoops) {
        for (NodeId v : plan.hubIds) {
            const float *src = y.row(v);
            float *dst = z.row(v);
            for (size_t ch = 0; ch < channels; ++ch)
                dst[ch] += src[ch];
        }
    }
    if (stats)
        *stats += plan.totalStats;
    return z;
}

DenseMatrix
aggregateViaIslands(const CsrGraph &g, const IslandizationResult &isl,
                    const DenseMatrix &y, const RedundancyConfig &cfg,
                    AggOpStats *stats, bool include_self_loops)
{
    if (y.rows() != g.numNodes())
        throw std::invalid_argument("y row count != node count");
    return replayIslandPlan(
        compileIslandPlan(g, isl, cfg, include_self_loops), y, stats);
}

DenseMatrix
gcnForwardViaIslands(const CsrGraph &g, const IslandizationResult &isl,
                     const Features &x,
                     const std::vector<DenseMatrix> &weights,
                     const RedundancyConfig &cfg, AggOpStats *stats)
{
    if (weights.empty())
        throw std::invalid_argument("no layers");
    std::vector<float> s = degreeScaling(g);
    const IslandPlan plan = compileIslandPlan(g, isl, cfg);
    DenseMatrix current;
    for (size_t l = 0; l < weights.size(); ++l) {
        DenseMatrix xw = l == 0 ? featuresTimesDense(x, weights[l])
                                : gemm(current, weights[l]);
        scaleRows(xw, s);
        current = replayIslandPlan(plan, xw, stats);
        scaleRows(current, s);
        if (l + 1 < weights.size())
            reluInPlace(current);
    }
    return current;
}

PruningReport
countPruning(const CsrGraph &g, const IslandizationResult &isl,
             const RedundancyConfig &cfg, bool include_self_loops)
{
    const IslandPlan plan =
        compileIslandPlan(g, isl, cfg, include_self_loops);
    PruningReport report;
    report.islandOps = plan.totalStats;
    // Each undirected inter-hub edge contributes two accumulations
    // (each endpoint consumes the other); each hub one self loop.
    report.interHubOps = 2 * plan.interHubEdges.size();
    report.hubSelfOps = include_self_loops ? plan.hubIds.size() : 0;
    return report;
}

} // namespace igcn
