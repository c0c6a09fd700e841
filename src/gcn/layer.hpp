/**
 * @file
 * GraphCONV layer building blocks.
 *
 * The layer-wise propagation is X(l+1) = sigma(A_hat X(l) W(l)) with
 * A_hat = D^-1/2 (A + I) D^-1/2 (Kipf & Welling). I-GCN's redundancy
 * removal needs *unweighted* accumulation, so we use the standard
 * factorization A_hat = S (A + I) S with S = diag(1/sqrt(deg+1)):
 * scale rows of XW by S, aggregate over the *binary* adjacency
 * (including self loops), and scale rows by S again. This is exactly
 * equal to the normalized product and lets pre-aggregated sums be
 * reused across shared neighbors.
 */

#pragma once

#include <span>

#include "graph/csr.hpp"
#include "spmm/spmm.hpp"

namespace igcn {

/** S = diag(1/sqrt(degree + 1)), the symmetric-normalization scaler. */
std::vector<float> degreeScaling(const CsrGraph &g);

/**
 * Recompute s at `nodes` from g, with degreeScaling's expression.
 * When s is degreeScaling of a graph g was edited from and nodes
 * holds every edit endpoint (the only nodes whose degree can
 * change), s comes out byte-equal to degreeScaling(g).
 *
 * @throws std::invalid_argument when s.size() != g.numNodes();
 * std::out_of_range on a node >= g.numNodes().
 */
void patchDegreeScaling(std::vector<float> &s, const CsrGraph &g,
                        std::span<const NodeId> nodes);

/** Row-scale in place: m.row(v) *= s[v]. */
void scaleRows(DenseMatrix &m, const std::vector<float> &s);

/**
 * Normalized adjacency A_hat = D^-1/2 (A + I) D^-1/2 as an explicit
 * weighted CSR matrix (reference path).
 */
CsrMatrix normalizedAdjacency(const CsrGraph &g);

/**
 * Rebuild a_hat as the A_hat of g under scaling s — entry (u, v) =
 * s[u] * s[v], self loop s[u]^2 at its sorted position, so it equals
 * normalizedAdjacency(g) when s = degreeScaling(g) — in place,
 * reusing its storage and dropping its cached CSC adjunct (mutating
 * the non-zero arrays of a CsrMatrix requires invalidateCsc). The
 * from-scratch build; update epochs use patchNormalizedAdjacency.
 */
void refreshNormalizedAdjacency(CsrMatrix &a_hat, const CsrGraph &g,
                                const std::vector<float> &s);

/**
 * The A_hat of g under scaling s, built from `parent` — the A_hat of
 * a graph g was edited from, under that graph's scaling — by
 * recomputing only the rows that can differ and copying every other
 * row verbatim (spliceCsrRows).
 *
 * Row u of A_hat reads g's row u, s[u] and s at u's neighbours, and
 * an edit changes adjacency and degree only at its endpoints. So
 * with `endpoints` holding every edit endpoint (in any order,
 * duplicates allowed) and s = degreeScaling(g), the changed rows are
 * the endpoints and their neighbours in g, and the result is
 * byte-equal to refreshNormalizedAdjacency(g, s): the recomputed
 * rows go through the same per-row writer. O(N + touched) plus one
 * memcpy of the untouched entries; the result's CSC cache is empty.
 *
 * @throws std::invalid_argument when parent is not numNodes square
 * or s is not numNodes long; std::out_of_range on an endpoint >=
 * g.numNodes().
 */
CsrMatrix patchNormalizedAdjacency(const CsrMatrix &parent,
                                   const CsrGraph &g,
                                   const std::vector<float> &s,
                                   std::span<const NodeId> endpoints);

/** Binary adjacency with self loops, A + I (factored path). */
CsrMatrix binaryAdjacencyWithSelfLoops(const CsrGraph &g);

/** Element-wise ReLU in place. */
void reluInPlace(DenseMatrix &m);

} // namespace igcn
