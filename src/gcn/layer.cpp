#include "gcn/layer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/thread_pool.hpp"

namespace igcn {

namespace {

/** One entry of degreeScaling. */
float
scaleOf(const CsrGraph &g, NodeId v)
{
    return 1.0f / std::sqrt(static_cast<float>(g.degree(v)) + 1.0f);
}

/**
 * Row u of A_hat under scaling s into cols/vals, which must have room
 * for degree(u) + 1 entries: g's row u with the self loop at its
 * sorted position (once, whether or not g stores it), entry (u, v) =
 * s[u] * s[v]. Returns the entries written. The one row writer of
 * both the full build and the touched-row patch.
 */
size_t
writeNormalizedRow(const CsrGraph &g, const std::vector<float> &s,
                   NodeId u, NodeId *cols, float *vals)
{
    size_t k = 0;
    bool self_inserted = false;
    for (NodeId v : g.neighbors(u)) {
        if (!self_inserted && v >= u) {
            cols[k] = u;
            vals[k++] = s[u] * s[u];
            self_inserted = true;
            if (v == u)
                continue; // graph already had the self loop
        }
        cols[k] = v;
        vals[k++] = s[u] * s[v];
    }
    if (!self_inserted) {
        cols[k] = u;
        vals[k++] = s[u] * s[u];
    }
    return k;
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
    CsrMatrix m;
    refreshNormalizedAdjacency(m, g, degreeScaling(g));
    return m;
}

void
refreshNormalizedAdjacency(CsrMatrix &m, const CsrGraph &g,
                           const std::vector<float> &s)
{
    const NodeId n = g.numNodes();
    m.numRows = n;
    m.numCols = n;
    m.rowPtr.resize(static_cast<size_t>(n) + 1);
    m.rowPtr[0] = 0;
    // Every row holds at most degree + 1 entries (its self loop).
    m.colIdx.resize(g.numEdges() + n);
    m.values.resize(g.numEdges() + n);
    EdgeId at = 0;
    for (NodeId u = 0; u < n; ++u) {
        at += writeNormalizedRow(g, s, u, m.colIdx.data() + at,
                                 m.values.data() + at);
        m.rowPtr[u + 1] = at;
    }
    m.colIdx.resize(at);
    m.values.resize(at);
    m.invalidateCsc();
}

CsrMatrix
patchNormalizedAdjacency(const CsrMatrix &parent, const CsrGraph &g,
                         const std::vector<float> &s,
                         std::span<const NodeId> endpoints)
{
    const NodeId n = g.numNodes();
    if (parent.numRows != n || parent.numCols != n ||
        parent.rowPtr.size() != static_cast<size_t>(n) + 1 ||
        s.size() != n)
        throw std::invalid_argument(
            "patchNormalizedAdjacency: parent or scaling does not "
            "match the graph");

    // The changed rows: the endpoints (new adjacency, new s[u]) and
    // every row listing an endpoint (new s[v] in one entry).
    CsrRowPatch patch;
    for (NodeId e : endpoints) {
        if (e >= n)
            throw std::out_of_range(
                "patchNormalizedAdjacency: endpoint exceeds num_nodes");
        patch.rows.push_back(e);
        const auto nbrs = g.neighbors(e);
        patch.rows.insert(patch.rows.end(), nbrs.begin(), nbrs.end());
    }
    std::sort(patch.rows.begin(), patch.rows.end());
    patch.rows.erase(std::unique(patch.rows.begin(), patch.rows.end()),
                     patch.rows.end());

    size_t bound = 0;
    for (NodeId u : patch.rows)
        bound += g.degree(u) + 1;
    patch.idx.resize(bound);
    patch.val.resize(bound);
    patch.ptr.reserve(patch.rows.size() + 1);
    EdgeId at = 0;
    for (NodeId u : patch.rows) {
        at += writeNormalizedRow(g, s, u, patch.idx.data() + at,
                                 patch.val.data() + at);
        patch.ptr.push_back(at);
    }
    patch.idx.resize(at);
    patch.val.resize(at);

    CsrMatrix m;
    m.numRows = n;
    m.numCols = n;
    spliceCsrRows(parent.rowPtr, parent.colIdx, patch, m.rowPtr,
                  m.colIdx, &parent.values, &m.values);
    return m;
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
        for (size_t i = lo; i < hi; ++i)
            if (data[i] < 0.0f)
                data[i] = 0.0f;
    }, /*min_per_worker=*/65536);
}

} // namespace igcn
