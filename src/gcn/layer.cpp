#include "gcn/layer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "runtime/thread_pool.hpp"
#include "spmm/row_block.hpp"

namespace igcn {

namespace {

/** One entry of degreeScaling. */
float
scaleOf(const CsrGraph &g, NodeId v)
{
    return 1.0f / std::sqrt(static_cast<float>(g.degree(v)) + 1.0f);
}

/**
 * Row u of A_hat under scaling s, read straight from g: the sorted
 * neighbour list split around u's self term, which sits between
 * nbrs[0, lo) and nbrs[hi, end) — hi = lo + 1 when g stores the self
 * loop, so it is used once.
 */
struct NormalizedRow
{
    std::span<const NodeId> nbrs;
    NodeId u;
    size_t lo;
    size_t hi;

    NormalizedRow(const CsrGraph &g, NodeId node)
        : nbrs(g.neighbors(node)), u(node),
          lo(static_cast<size_t>(
              std::lower_bound(nbrs.begin(), nbrs.end(), node) -
              nbrs.begin())),
          hi(lo + (lo < nbrs.size() && nbrs[lo] == node))
    {}

    EdgeId entries() const { return nbrs.size() - (hi - lo) + 1; }

    /** f(v, s[u] * s[v]) for each entry in column order. */
    template <typename F>
    void
    visit(const float *s, F &&f) const
    {
        const float su = s[u];
        for (size_t t = 0; t < lo; ++t)
            f(nbrs[t], su * s[nbrs[t]]);
        f(u, su * su);
        for (size_t t = hi; t < nbrs.size(); ++t)
            f(nbrs[t], su * s[nbrs[t]]);
    }
};

/**
 * pullNormalizedRows' row loop; row_of(v) is the row of b node v
 * reads. Returns the entries the pulled rows read.
 */
template <typename RowOf>
uint64_t
pullRows(const CsrGraph &g, const float *s, std::span<const NodeId> rows,
         const DenseMatrix &b, RowOf row_of, DenseMatrix &c,
         const uint8_t *skip)
{
    std::atomic<uint64_t> read{0};
    globalPool().parallelFor(0, rows.size(),
                             [&](int, size_t r0, size_t r1) {
        uint64_t chunk = 0;
        for (size_t i = r0; i < r1; ++i) {
            if (skip && skip[i])
                continue;
            const NormalizedRow row(g, rows[i]);
            chunk += row.entries();
            detail::accumulateRow(b.cols(), c.row(i),
                                  [&](auto &acc, size_t j) {
                using Block = std::remove_reference_t<decltype(acc)>;
                row.visit(s, [&](NodeId v, float w) {
                    acc.addScaled(w, Block::at(b.row(row_of(v)) + j));
                });
            });
        }
        read.fetch_add(chunk, std::memory_order_relaxed);
    }, /*min_per_worker=*/16);
    return read.load(std::memory_order_relaxed);
}

} // namespace

std::vector<float>
degreeScaling(const CsrGraph &g)
{
    std::vector<float> s(g.numNodes());
    for (NodeId v = 0; v < g.numNodes(); ++v)
        s[v] = scaleOf(g, v);
    return s;
}

void
patchDegreeScaling(std::vector<float> &s, const CsrGraph &g,
                   std::span<const NodeId> nodes)
{
    if (s.size() != g.numNodes())
        throw std::invalid_argument(
            "patchDegreeScaling: scaling size != num_nodes");
    for (NodeId v : nodes) {
        if (v >= g.numNodes())
            throw std::out_of_range(
                "patchDegreeScaling: node exceeds num_nodes");
        s[v] = scaleOf(g, v);
    }
}

void
scaleRows(DenseMatrix &m, const std::vector<float> &s)
{
    KernelRegion region("scale_rows");
    globalPool().parallelFor(0, m.rows(),
                             [&](int, size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
            float *row = m.row(r);
            for (size_t c = 0; c < m.cols(); ++c)
                row[c] *= s[r];
        }
    }, /*min_per_worker=*/256);
}

CsrMatrix
normalizedAdjacency(const CsrGraph &g)
{
    const NodeId n = g.numNodes();
    const std::vector<float> s = degreeScaling(g);
    CsrMatrix m;
    m.numRows = n;
    m.numCols = n;
    m.rowPtr.resize(static_cast<size_t>(n) + 1);
    m.rowPtr[0] = 0;
    // Every row holds at most degree + 1 entries (its self loop).
    m.colIdx.resize(g.numEdges() + n);
    m.values.resize(g.numEdges() + n);
    // One merge pass per row, written apart from NormalizedRow: this
    // is the reference the serving pull is tested against.
    EdgeId at = 0;
    const auto put = [&](NodeId u, NodeId v) {
        m.colIdx[at] = v;
        m.values[at++] = s[u] * s[v];
    };
    for (NodeId u = 0; u < n; ++u) {
        bool self_done = false;
        for (NodeId v : g.neighbors(u)) {
            if (!self_done && v >= u) {
                put(u, u);
                self_done = true;
                if (v == u)
                    continue; // g stores the self loop
            }
            put(u, v);
        }
        if (!self_done)
            put(u, u);
        m.rowPtr[u + 1] = at;
    }
    m.colIdx.resize(at);
    m.values.resize(at);
    return m;
}

EdgeId
normalizedRowEntries(const CsrGraph &g, NodeId u)
{
    return NormalizedRow(g, u).entries();
}

uint64_t
pullNormalizedRows(const CsrGraph &g, const std::vector<float> &s,
                   std::span<const NodeId> rows, const DenseMatrix &b,
                   std::span<const NodeId> b_row_of, DenseMatrix &c,
                   std::span<const uint8_t> skip)
{
    const NodeId n = g.numNodes();
    if (s.size() != n)
        throw std::invalid_argument(
            "pullNormalizedRows: scaling size != num_nodes");
    if (!b_row_of.empty() && b_row_of.size() != n)
        throw std::invalid_argument(
            "pullNormalizedRows: column map size != num_nodes");
    if (b_row_of.empty() && b.rows() != n)
        throw std::invalid_argument(
            "pullNormalizedRows: b rows != num_nodes");
    if (!skip.empty() && skip.size() != rows.size())
        throw std::invalid_argument(
            "pullNormalizedRows: skip size != row count");
    if (c.rows() != rows.size() || c.cols() != b.cols())
        throw std::invalid_argument(
            "pullNormalizedRows: output shape mismatch");
    for (NodeId r : rows)
        if (r >= n)
            throw std::out_of_range(
                "pullNormalizedRows: row exceeds num_nodes");
    KernelRegion region("spmm_pull_rows");
    const uint8_t *skip_row = skip.empty() ? nullptr : skip.data();
    if (b_row_of.empty())
        return pullRows(g, s.data(), rows, b,
                        [](NodeId v) { return v; }, c, skip_row);
    return pullRows(g, s.data(), rows, b,
                    [map = b_row_of.data()](NodeId v) { return map[v]; },
                    c, skip_row);
}

CsrMatrix
binaryAdjacencyWithSelfLoops(const CsrGraph &g)
{
    CsrMatrix m;
    m.numRows = g.numNodes();
    m.numCols = g.numNodes();
    m.rowPtr.assign(g.numNodes() + 1, 0);
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        bool self_inserted = false;
        for (NodeId v : g.neighbors(u)) {
            if (!self_inserted && v >= u) {
                m.colIdx.push_back(u);
                self_inserted = true;
                if (v == u)
                    continue;
            }
            m.colIdx.push_back(v);
        }
        if (!self_inserted)
            m.colIdx.push_back(u);
        m.rowPtr[u + 1] = m.colIdx.size();
    }
    m.values.assign(m.colIdx.size(), 1.0f);
    return m;
}

void
reluInPlace(DenseMatrix &m)
{
    auto &data = m.data();
    KernelRegion region("relu");
    globalPool().parallelFor(0, data.size(),
                             [&](int, size_t lo, size_t hi) {
        // A select, not a branch: mixed signs mispredict, and it
        // keeps NaN and -0.0f exactly as `if (x < 0) x = 0` does.
        for (size_t i = lo; i < hi; ++i)
            data[i] = data[i] < 0.0f ? 0.0f : data[i];
    }, /*min_per_worker=*/65536);
}

} // namespace igcn
