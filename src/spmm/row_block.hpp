/**
 * @file
 * The one row-accumulation kernel: an output row built as an ordered
 * sum of (weighted) input rows, one register-held column block at a
 * time, each block stored once. gemm, gemmTransposeB, every sparse
 * row gather (spmm.cpp) and the Island Consumer's plan replay run on
 * it; gemmTransposeA uses the blocks directly. Internal to src/.
 *
 * Each lane of a block is its own output column, and each column
 * starts at +0.0f and takes its terms in the caller's order with one
 * rounded product and one rounded sum per term, exactly as a scalar
 * `c += w * x` loop does. So no accumulation chain is split or
 * reordered, whatever the width.
 */

#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>

namespace igcn::detail {

/**
 * Four float lanes (GCC/Clang vector extension: SSE2 on x86-64, plain
 * scalar code elsewhere). Lane-wise + and * round exactly as the
 * scalar operations do. An explicit type, not an auto-vectorized
 * float loop: GCC's -O3 unroll-and-jam turns a 32-wide scalar block
 * into a scalar store-reload loop several times slower.
 */
typedef float Lanes __attribute__((vector_size(4 * sizeof(float))));
constexpr size_t kLanes = 4;

/**
 * kW adjacent columns held in registers: kW / 4 Lanes when kW is a
 * multiple of four, else kW scalars. Starts at +0.0f.
 */
template <size_t kW>
struct ColumnBlock
{
    using Elem = std::conditional_t<kW % kLanes == 0, Lanes, float>;
    static constexpr size_t kStride = sizeof(Elem) / sizeof(float);
    static constexpr size_t kElems = kW / kStride;

    Elem v[kElems] = {};

    /** The block at p[0, kW). */
    static ColumnBlock at(const float *p)
    {
        ColumnBlock b;
        for (size_t q = 0; q < kElems; ++q)
            std::memcpy(&b.v[q], p + q * kStride, sizeof(Elem));
        return b;
    }

    void store(float *p) const
    {
        for (size_t q = 0; q < kElems; ++q)
            std::memcpy(p + q * kStride, &v[q], sizeof(Elem));
    }

    /** this += x, as the scalar `c += x`. */
    void add(const ColumnBlock &x)
    {
        for (size_t q = 0; q < kElems; ++q)
            v[q] += x.v[q];
    }

    /** this -= x, as the scalar `c -= x`. */
    void sub(const ColumnBlock &x)
    {
        for (size_t q = 0; q < kElems; ++q)
            v[q] -= x.v[q];
    }

    /** this += s * x: one rounded product and one rounded sum per
     *  column, as in the scalar `c += s * x`. */
    void addScaled(float s, const ColumnBlock &x)
    {
        const Elem sv = broadcast(s);
        for (size_t q = 0; q < kElems; ++q)
            v[q] += sv * x.v[q];
    }

    static Elem broadcast(float s)
    {
        if constexpr (kStride == 1)
            return s;
        else
            return Elem{s, s, s, s};
    }
};

/**
 * Calls f(std::integral_constant<size_t, W>{}, j) for consecutive
 * column blocks [j, j + W) that cover [0, n): 32 wide, then 16, 8 and
 * 4 wide, then one scalar block for the last 1-3 columns. A fixed
 * width lets a block live in registers.
 */
template <typename F>
void
forColumnBlocks(size_t n, F &&f)
{
    size_t j = 0;
    for (; j + 32 <= n; j += 32)
        f(std::integral_constant<size_t, 32>{}, j);
    auto step = [&](auto width) {
        if (j + width <= n) {
            f(width, j);
            j += width;
        }
    };
    step(std::integral_constant<size_t, 16>{});
    step(std::integral_constant<size_t, 8>{});
    step(std::integral_constant<size_t, 4>{});
    switch (n - j) {
    case 3:
        f(std::integral_constant<size_t, 3>{}, j);
        break;
    case 2:
        f(std::integral_constant<size_t, 2>{}, j);
        break;
    case 1:
        f(std::integral_constant<size_t, 1>{}, j);
        break;
    default:
        break;
    }
}

/**
 * out[0, cols) overwritten block by block: for each column block
 * [j, j + W), apply(acc, j) applies the row's terms to a +0.0f
 * ColumnBlock<W> acc, which is then stored to out + j once.
 */
template <typename Apply>
void
accumulateRow(size_t cols, float *out, Apply &&apply)
{
    forColumnBlocks(cols, [&](auto width, size_t j) {
        ColumnBlock<decltype(width)::value> acc;
        apply(acc, j);
        acc.store(out + j);
    });
}

/**
 * out[j] = sum over t ascending in [0, n) of weight(t) * row(t)[j],
 * from +0.0f, for j in [0, cols): the weighted-row sum every gather
 * and dense product shares. row(t) points at a row of >= cols floats.
 */
template <typename Weight, typename Row>
void
weightedRowSum(size_t cols, size_t n, Weight &&weight, Row &&row,
               float *out)
{
    accumulateRow(cols, out, [&](auto &acc, size_t j) {
        using Block = std::remove_reference_t<decltype(acc)>;
        for (size_t t = 0; t < n; ++t)
            acc.addScaled(weight(t), Block::at(row(t) + j));
    });
}

} // namespace igcn::detail
