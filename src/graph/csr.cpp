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
        for (EdgeId e = row_ptr[u]; e < row_ptr[u + 1]; ++e) {
            if (col_idx[e] >= n)
                throw std::invalid_argument(
                    "fromCsrArrays: column id out of range");
            if (e > row_ptr[u] && col_idx[e] <= col_idx[e - 1])
                throw std::invalid_argument(
                    "fromCsrArrays: row columns not strictly "
                    "ascending");
        }
    }
    CsrGraph g;
    g.rowPtr = std::move(row_ptr);
    g.colIdx = std::move(col_idx);
    return g;
}

CsrGraph
CsrGraph::withAddedEdges(std::span<const Edge> added) const
{
    const NodeId n = numNodes();
    std::vector<Edge> arcs;
    arcs.reserve(added.size() * 2);
    for (const auto &[u, v] : added) {
        if (u >= n || v >= n)
            throw std::out_of_range(
                "withAddedEdges: endpoint exceeds num_nodes");
        if (u == v)
            continue;
        arcs.emplace_back(u, v);
        arcs.emplace_back(v, u);
    }
    std::sort(arcs.begin(), arcs.end());
    arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());

    std::vector<EdgeId> rp(static_cast<size_t>(n) + 1, 0);
    std::vector<NodeId> ci;
    ci.reserve(colIdx.size() + arcs.size());
    size_t ai = 0;
    for (NodeId u = 0; u < n; ++u) {
        EdgeId e = rowPtr[u];
        const EdgeId e1 = rowPtr[u + 1];
        while (e < e1 || (ai < arcs.size() && arcs[ai].first == u)) {
            const bool have_added =
                ai < arcs.size() && arcs[ai].first == u;
            if (!have_added) {
                ci.push_back(colIdx[e++]);
            } else if (e >= e1 || arcs[ai].second < colIdx[e]) {
                ci.push_back(arcs[ai++].second);
            } else if (arcs[ai].second == colIdx[e]) {
                ai++; // arc already present; existing entry wins
            } else {
                ci.push_back(colIdx[e++]);
            }
        }
        rp[u + 1] = ci.size();
    }
    return fromCsrArrays(std::move(rp), std::move(ci));
}

CsrGraph
CsrGraph::withRemovedEdges(std::span<const Edge> removed) const
{
    const NodeId n = numNodes();
    std::vector<Edge> arcs;
    arcs.reserve(removed.size() * 2);
    for (const auto &[u, v] : removed) {
        if (u >= n || v >= n)
            throw std::out_of_range(
                "withRemovedEdges: endpoint exceeds num_nodes");
        arcs.emplace_back(u, v);
        if (u != v)
            arcs.emplace_back(v, u);
    }
    std::sort(arcs.begin(), arcs.end());
    arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());

    auto missing = [](const Edge &arc) {
        throw std::invalid_argument(
            "withRemovedEdges: edge (" +
            std::to_string(arc.first) + ", " +
            std::to_string(arc.second) + ") not present");
    };

    std::vector<EdgeId> rp(static_cast<size_t>(n) + 1, 0);
    std::vector<NodeId> ci;
    ci.reserve(colIdx.size() >= arcs.size()
                   ? colIdx.size() - arcs.size()
                   : 0);
    size_t ai = 0;
    for (NodeId u = 0; u < n; ++u) {
        for (EdgeId e = rowPtr[u]; e < rowPtr[u + 1]; ++e) {
            // Arcs sorted before this row entry matched nothing.
            while (ai < arcs.size() && arcs[ai].first == u &&
                   arcs[ai].second < colIdx[e])
                missing(arcs[ai]);
            if (ai < arcs.size() && arcs[ai].first == u &&
                arcs[ai].second == colIdx[e]) {
                ai++; // drop this arc
                continue;
            }
            ci.push_back(colIdx[e]);
        }
        while (ai < arcs.size() && arcs[ai].first == u)
            missing(arcs[ai]);
        rp[u + 1] = ci.size();
    }
    return fromCsrArrays(std::move(rp), std::move(ci));
}

CsrGraph
CsrGraph::withEditedEdges(std::span<const Edge> fresh,
                          std::span<const Edge> stale) const
{
    const NodeId n = numNodes();

    std::vector<Edge> adds;
    adds.reserve(fresh.size() * 2);
    for (const auto &[u, v] : fresh) {
        if (u >= n || v >= n)
            throw std::out_of_range(
                "withEditedEdges: endpoint exceeds num_nodes");
        if (u == v)
            continue;
        adds.emplace_back(u, v);
        adds.emplace_back(v, u);
    }
    std::sort(adds.begin(), adds.end());
    adds.erase(std::unique(adds.begin(), adds.end()), adds.end());

    std::vector<Edge> rems;
    rems.reserve(stale.size() * 2);
    for (const auto &[u, v] : stale) {
        if (u >= n || v >= n)
            throw std::out_of_range(
                "withEditedEdges: endpoint exceeds num_nodes");
        rems.emplace_back(u, v);
        if (u != v)
            rems.emplace_back(v, u);
    }
    std::sort(rems.begin(), rems.end());
    rems.erase(std::unique(rems.begin(), rems.end()), rems.end());

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

    // One three-way sweep per row: existing ∪ adds, minus rems, with
    // the removal strictness of withRemovedEdges (rems must match
    // existing entries; adds cannot satisfy a removal — the
    // intersection check above already rejected that shape).
    std::vector<EdgeId> rp(static_cast<size_t>(n) + 1, 0);
    std::vector<NodeId> ci;
    ci.reserve(colIdx.size() + adds.size());
    size_t ai = 0, ri = 0;
    for (NodeId u = 0; u < n; ++u) {
        EdgeId e = rowPtr[u];
        const EdgeId e1 = rowPtr[u + 1];
        while (e < e1 || (ai < adds.size() && adds[ai].first == u)) {
            const bool have_add =
                ai < adds.size() && adds[ai].first == u;
            if (have_add && (e >= e1 || adds[ai].second < colIdx[e])) {
                ci.push_back(adds[ai++].second);
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
            ci.push_back(c);
            e++;
        }
        while (ri < rems.size() && rems[ri].first == u)
            missing(rems[ri]);
        rp[u + 1] = ci.size();
    }
    return fromCsrArrays(std::move(rp), std::move(ci));
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
