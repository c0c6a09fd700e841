#include "graph/csr.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

namespace igcn {

CsrGraph
CsrGraph::fromEdges(NodeId num_nodes, const std::vector<Edge> &edges,
                    bool symmetrize, bool keep_self_loops)
{
    std::vector<Edge> work;
    work.reserve(edges.size() * (symmetrize ? 2 : 1));
    for (const auto &[u, v] : edges) {
        if (u >= num_nodes || v >= num_nodes)
            throw std::out_of_range("edge endpoint exceeds num_nodes");
        if (u == v && !keep_self_loops)
            continue;
        work.emplace_back(u, v);
        if (symmetrize && u != v)
            work.emplace_back(v, u);
    }
    std::sort(work.begin(), work.end());
    work.erase(std::unique(work.begin(), work.end()), work.end());

    CsrGraph g;
    g.rowPtr.assign(num_nodes + 1, 0);
    g.colIdx.resize(work.size());
    for (const auto &[u, v] : work)
        g.rowPtr[u + 1]++;
    std::partial_sum(g.rowPtr.begin(), g.rowPtr.end(), g.rowPtr.begin());
    std::vector<EdgeId> cursor(g.rowPtr.begin(), g.rowPtr.end() - 1);
    for (const auto &[u, v] : work)
        g.colIdx[cursor[u]++] = v;
    return g;
}

namespace {

/** Throws unless cols is strictly ascending with every id < n. */
void
checkRowColumns(std::span<const NodeId> cols, NodeId n,
                const char *who)
{
    for (size_t i = 0; i < cols.size(); ++i) {
        if (cols[i] >= n)
            throw std::invalid_argument(std::string(who) +
                                        ": column id out of range");
        if (i > 0 && cols[i] <= cols[i - 1])
            throw std::invalid_argument(
                std::string(who) +
                ": row columns not strictly ascending");
    }
}

/** Both arcs of every edge (one for a self loop, dropped when
 *  keep_self_loops is false), range-checked, sorted, deduplicated. */
std::vector<Edge>
sortedArcs(std::span<const Edge> edges, NodeId n, bool keep_self_loops)
{
    std::vector<Edge> arcs;
    arcs.reserve(edges.size() * 2);
    for (const auto &[u, v] : edges) {
        if (u >= n || v >= n)
            throw std::out_of_range(
                "withEditedEdges: endpoint exceeds num_nodes");
        if (u == v && !keep_self_loops)
            continue;
        arcs.emplace_back(u, v);
        if (u != v)
            arcs.emplace_back(v, u);
    }
    std::sort(arcs.begin(), arcs.end());
    arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
    return arcs;
}

} // namespace

CsrGraph
CsrGraph::fromCsrArrays(std::vector<EdgeId> row_ptr,
                        std::vector<NodeId> col_idx)
{
    if (row_ptr.empty() || row_ptr.front() != 0 ||
        row_ptr.back() != col_idx.size())
        throw std::invalid_argument(
            "fromCsrArrays: row pointer must start at 0 and end at "
            "col_idx.size()");
    const auto n = static_cast<NodeId>(row_ptr.size() - 1);
    for (NodeId u = 0; u < n; ++u) {
        if (row_ptr[u] > row_ptr[u + 1])
            throw std::invalid_argument(
                "fromCsrArrays: row pointer not monotone");
        checkRowColumns({col_idx.data() + row_ptr[u],
                         col_idx.data() + row_ptr[u + 1]},
                        n, "fromCsrArrays");
    }
    CsrGraph g;
    g.rowPtr = std::move(row_ptr);
    g.colIdx = std::move(col_idx);
    return g;
}

CsrGraph
CsrGraph::withAddedEdges(std::span<const Edge> added) const
{
    return withEditedEdges(added, {});
}

CsrGraph
CsrGraph::withRemovedEdges(std::span<const Edge> removed) const
{
    return withEditedEdges({}, removed);
}

CsrGraph
CsrGraph::withEditedEdges(std::span<const Edge> fresh,
                          std::span<const Edge> stale) const
{
    const NodeId n = numNodes();
    const std::vector<Edge> adds =
        sortedArcs(fresh, n, /*keep_self_loops=*/false);
    const std::vector<Edge> rems =
        sortedArcs(stale, n, /*keep_self_loops=*/true);

    // Both-spans is an ambiguous edit, not a sequencing question:
    // reject it up front instead of picking an order silently. (The
    // serving applier's want-map coalescing never produces one.)
    {
        size_t a = 0, r = 0;
        while (a < adds.size() && r < rems.size()) {
            if (adds[a] < rems[r])
                ++a;
            else if (rems[r] < adds[a])
                ++r;
            else
                throw std::invalid_argument(
                    "withEditedEdges: edge (" +
                    std::to_string(adds[a].first) + ", " +
                    std::to_string(adds[a].second) +
                    ") in both fresh and stale spans");
        }
    }

    auto missing = [](const Edge &arc) {
        throw std::invalid_argument(
            "withEditedEdges: edge (" + std::to_string(arc.first) +
            ", " + std::to_string(arc.second) + ") not present");
    };

    // The touched rows: every source of an edit arc, ascending.
    CsrRowPatch patch;
    for (const auto &arcs : {&adds, &rems})
        for (const Edge &arc : *arcs)
            patch.rows.push_back(arc.first);
    std::sort(patch.rows.begin(), patch.rows.end());
    patch.rows.erase(std::unique(patch.rows.begin(), patch.rows.end()),
                     patch.rows.end());
    size_t bound = adds.size();
    for (NodeId u : patch.rows)
        bound += degree(u);
    patch.idx.resize(bound);
    patch.ptr.reserve(patch.rows.size() + 1);

    // One three-way sweep per touched row: existing ∪ adds, minus
    // rems. Removals must match existing entries; adds cannot satisfy
    // a removal (the intersection check above rejected that shape).
    NodeId *out = patch.idx.data();
    size_t ai = 0, ri = 0;
    for (NodeId u : patch.rows) {
        NodeId *row = out;
        EdgeId e = rowPtr[u];
        const EdgeId e1 = rowPtr[u + 1];
        while (e < e1 || (ai < adds.size() && adds[ai].first == u)) {
            const bool have_add =
                ai < adds.size() && adds[ai].first == u;
            if (have_add && (e >= e1 || adds[ai].second < colIdx[e])) {
                *out++ = adds[ai++].second;
                continue;
            }
            const NodeId c = colIdx[e];
            if (have_add && adds[ai].second == c)
                ai++; // arc already present; existing entry wins
            // Removal arcs sorted before this entry matched nothing.
            while (ri < rems.size() && rems[ri].first == u &&
                   rems[ri].second < c)
                missing(rems[ri]);
            if (ri < rems.size() && rems[ri].first == u &&
                rems[ri].second == c) {
                ri++; // drop this arc
                e++;
                continue;
            }
            *out++ = c;
            e++;
        }
        while (ri < rems.size() && rems[ri].first == u)
            missing(rems[ri]);
        // Only the merged rows need checking: every other row is
        // copied from this graph, which already holds the invariants.
        checkRowColumns({row, out}, n, "withEditedEdges");
        patch.ptr.push_back(static_cast<EdgeId>(out - patch.idx.data()));
    }
    patch.idx.resize(patch.ptr.back());

    CsrGraph g;
    spliceCsrRows(rowPtr, colIdx, patch, g.rowPtr, g.colIdx);
    return g;
}

bool
CsrGraph::hasEdge(NodeId u, NodeId v) const
{
    auto nbrs = neighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

NodeId
CsrGraph::arcSource(EdgeId e) const
{
    if (e >= numEdges())
        throw std::out_of_range(
            "arcSource: arc slot exceeds numEdges");
    return static_cast<NodeId>(
        std::upper_bound(rowPtr.begin(), rowPtr.end(), e) -
        rowPtr.begin() - 1);
}

std::vector<std::vector<NodeId>>
lHopFrontiers(const CsrGraph &g, std::span<const NodeId> targets,
              int hops)
{
    if (hops < 0)
        throw std::invalid_argument("lHopFrontiers: negative hops");
    const NodeId n = g.numNodes();
    std::vector<uint8_t> seen(n, 0);
    std::vector<NodeId> level;
    for (NodeId t : targets) {
        if (t >= n)
            throw std::out_of_range(
                "lHopFrontiers: target exceeds num_nodes");
        if (!seen[t]) {
            seen[t] = 1;
            level.push_back(t);
        }
    }
    std::vector<std::vector<NodeId>> sets(hops + 1);
    std::sort(level.begin(), level.end());
    sets[0] = level;
    std::vector<NodeId> next;
    for (int k = 1; k <= hops; ++k) {
        // Expand the nodes first reached at depth k - 1; set k is set
        // k - 1 merged with the nodes first reached at depth k.
        next.clear();
        for (NodeId u : level)
            for (NodeId v : g.neighbors(u))
                if (!seen[v]) {
                    seen[v] = 1;
                    next.push_back(v);
                }
        std::sort(next.begin(), next.end());
        sets[k].resize(sets[k - 1].size() + next.size());
        std::merge(sets[k - 1].begin(), sets[k - 1].end(), next.begin(),
                   next.end(), sets[k].begin());
        level.swap(next);
    }
    return sets;
}

void
transposeCsrIndex(NodeId num_cols, const std::vector<EdgeId> &row_ptr,
                  const std::vector<NodeId> &col_idx,
                  std::vector<EdgeId> &out_ptr,
                  std::vector<NodeId> &out_idx,
                  const std::vector<float> *values,
                  std::vector<float> *out_val)
{
    // Payloads are carried only when both sides are supplied.
    const bool carry = values != nullptr && out_val != nullptr;
    out_ptr.assign(static_cast<size_t>(num_cols) + 1, 0);
    out_idx.resize(col_idx.size());
    if (carry)
        out_val->resize(col_idx.size());
    for (NodeId v : col_idx)
        out_ptr[v + 1]++;
    for (NodeId k = 0; k < num_cols; ++k)
        out_ptr[k + 1] += out_ptr[k];
    const NodeId rows = row_ptr.empty()
        ? 0
        : static_cast<NodeId>(row_ptr.size() - 1);
    std::vector<EdgeId> cursor(out_ptr.begin(), out_ptr.end() - 1);
    for (NodeId i = 0; i < rows; ++i) {
        for (EdgeId e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
            const EdgeId slot = cursor[col_idx[e]]++;
            out_idx[slot] = i;
            if (carry)
                (*out_val)[slot] = (*values)[e];
        }
    }
}

void
spliceCsrRows(const std::vector<EdgeId> &row_ptr,
              const std::vector<NodeId> &col_idx,
              const CsrRowPatch &patch, std::vector<EdgeId> &out_ptr,
              std::vector<NodeId> &out_idx)
{
    const NodeId rows = row_ptr.empty()
        ? 0
        : static_cast<NodeId>(row_ptr.size() - 1);
    if (patch.ptr.size() != patch.rows.size() + 1 ||
        patch.ptr.front() != 0 || patch.ptr.back() != patch.idx.size())
        throw std::invalid_argument(
            "spliceCsrRows: patch pointers do not frame its rows");
    EdgeId replaced = 0;
    for (size_t i = 0; i < patch.rows.size(); ++i) {
        const NodeId r = patch.rows[i];
        if (r >= rows || (i > 0 && r <= patch.rows[i - 1]))
            throw std::invalid_argument(
                "spliceCsrRows: patch rows not strictly ascending "
                "row ids");
        replaced += row_ptr[r + 1] - row_ptr[r];
    }
    const EdgeId nnz = col_idx.size() - replaced + patch.idx.size();

    out_ptr.resize(static_cast<size_t>(rows) + 1);
    out_ptr[0] = 0;
    out_idx.clear();
    out_idx.reserve(nnz);
    NodeId next = 0; // first row not yet emitted
    const auto copy_rows = [&](NodeId end) {
        if (next == end)
            return; // also covers an empty (moved-from) row_ptr
        const EdgeId src = row_ptr[next];
        const EdgeId dst = out_idx.size();
        out_idx.insert(out_idx.end(), col_idx.data() + src,
                       col_idx.data() + row_ptr[end]);
        for (NodeId r = next; r < end; ++r)
            out_ptr[r + 1] = row_ptr[r + 1] - src + dst;
    };
    for (size_t i = 0; i < patch.rows.size(); ++i) {
        const NodeId r = patch.rows[i];
        copy_rows(r);
        out_idx.insert(out_idx.end(), patch.idx.data() + patch.ptr[i],
                       patch.idx.data() + patch.ptr[i + 1]);
        out_ptr[r + 1] = out_idx.size();
        next = r + 1;
    }
    copy_rows(rows);
}

const CsrGraph::InEdgeIndex &
CsrGraph::inEdges() const
{
    return inEdgeCache.get([this] {
        InEdgeIndex idx;
        transposeCsrIndex(numNodes(), rowPtr, colIdx, idx.inPtr,
                          idx.srcOf);
        return idx;
    });
}

NodeId
CsrGraph::maxDegree() const
{
    NodeId best = 0;
    for (NodeId v = 0; v < numNodes(); ++v)
        best = std::max(best, degree(v));
    return best;
}

double
CsrGraph::avgDegree() const
{
    if (numNodes() == 0)
        return 0.0;
    return static_cast<double>(numEdges()) / numNodes();
}

bool
CsrGraph::isSymmetric() const
{
    // Symmetric iff every node's sorted in-neighbor list equals its
    // sorted out-neighbor list: O(N + E) over the cached in-edge
    // index instead of a binary search per edge.
    const InEdgeIndex &idx = inEdges();
    for (NodeId u = 0; u < numNodes(); ++u) {
        auto out = neighbors(u);
        const NodeId *in = idx.srcOf.data() + idx.inPtr[u];
        if (out.size() != idx.inPtr[u + 1] - idx.inPtr[u] ||
            !std::equal(out.begin(), out.end(), in))
            return false;
    }
    return true;
}

EdgeId
CsrGraph::numSelfLoops() const
{
    EdgeId count = 0;
    for (NodeId u = 0; u < numNodes(); ++u)
        if (hasEdge(u, u))
            count++;
    return count;
}

CsrGraph
CsrGraph::permuted(const std::vector<NodeId> &perm) const
{
    assert(perm.size() == numNodes());
    std::vector<Edge> edges;
    edges.reserve(numEdges());
    for (NodeId u = 0; u < numNodes(); ++u)
        for (NodeId v : neighbors(u))
            edges.emplace_back(perm[u], perm[v]);
    return fromEdges(numNodes(), edges, /*symmetrize=*/false,
                     /*keep_self_loops=*/true);
}

std::vector<Edge>
CsrGraph::toEdges() const
{
    std::vector<Edge> edges;
    edges.reserve(numEdges());
    for (NodeId u = 0; u < numNodes(); ++u)
        for (NodeId v : neighbors(u))
            edges.emplace_back(u, v);
    return edges;
}

std::vector<EdgeId>
degreeHistogram(const CsrGraph &g)
{
    std::vector<EdgeId> hist(g.maxDegree() + 1, 0);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        hist[g.degree(v)]++;
    return hist;
}

std::pair<std::vector<NodeId>, NodeId>
connectedComponents(const CsrGraph &g)
{
    const NodeId n = g.numNodes();
    constexpr NodeId kUnseen = ~NodeId{0};
    std::vector<NodeId> comp(n, kUnseen);
    std::vector<NodeId> stack;
    NodeId num_comps = 0;
    for (NodeId start = 0; start < n; ++start) {
        if (comp[start] != kUnseen)
            continue;
        comp[start] = num_comps;
        stack.push_back(start);
        while (!stack.empty()) {
            NodeId u = stack.back();
            stack.pop_back();
            for (NodeId v : g.neighbors(u)) {
                if (comp[v] == kUnseen) {
                    comp[v] = num_comps;
                    stack.push_back(v);
                }
            }
        }
        num_comps++;
    }
    return {std::move(comp), num_comps};
}

bool
isPermutation(const std::vector<NodeId> &perm)
{
    std::vector<bool> seen(perm.size(), false);
    for (NodeId p : perm) {
        if (p >= perm.size() || seen[p])
            return false;
        seen[p] = true;
    }
    return true;
}

std::vector<NodeId>
inversePermutation(const std::vector<NodeId> &perm)
{
    std::vector<NodeId> inv(perm.size());
    for (NodeId v = 0; v < perm.size(); ++v)
        inv[perm[v]] = v;
    return inv;
}

} // namespace igcn
