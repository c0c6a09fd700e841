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
 * weighted CSR matrix (reference path): with s = degreeScaling(g),
 * entry (u, v) = s[u] * s[v] and the self loop s[u]^2 at its sorted
 * position, once whether or not g stores it.
 */
CsrMatrix normalizedAdjacency(const CsrGraph &g);

/**
 * Entries of row u of A_hat: degree(u) + 1, less one when g stores
 * the self loop (it is used once).
 */
EdgeId normalizedRowEntries(const CsrGraph &g, NodeId u);

/**
 * Row-subset pull over A_hat of g under scaling s, without
 * materializing A_hat: output row i is row rows[i] of A_hat times B,
 * where node v reads row b_row_of[v] of b (row v when b_row_of is
 * empty). Every neighbour of a row the kernel reads (and the row
 * itself) must map to a valid row of b; other entries of b_row_of
 * are never read, so they may hold anything.
 *
 * Row u takes its terms in g.neighbors(u) order with the self term
 * at its sorted position, each weight the one rounded product
 * s[u] * s[v] — exactly the entries normalizedAdjacency stores — on
 * the shared row kernel from +0.0f. So with s = degreeScaling(g) an
 * output row is bit-identical to row rows[i] of spmmPullRowWise(
 * normalizedAdjacency(g), B') where B' row v = b row b_row_of[v], at
 * any IGCN_THREADS. The serving engine pulls each GCN layer on one
 * frontier this way, and its aggregation cache substitutes skipped
 * rows (serve/agg_cache.hpp).
 *
 * Rows i with skip[i] != 0 (skip empty = none) are left exactly as
 * the caller pre-filled them; every other row of c is overwritten.
 * Returns the A_hat entries the pulled rows read (the sum of
 * normalizedRowEntries over the rows not skipped).
 *
 * @throws std::invalid_argument when s is not numNodes long, on a
 * column map that is not numNodes long, numNodes != b.rows() without
 * one, a skip mask that is not rows.size() long, or c not
 * rows.size() x b.cols(); std::out_of_range on a row >= numNodes.
 */
uint64_t pullNormalizedRows(const CsrGraph &g, const std::vector<float> &s,
                            std::span<const NodeId> rows,
                            const DenseMatrix &b,
                            std::span<const NodeId> b_row_of,
                            DenseMatrix &c,
                            std::span<const uint8_t> skip = {});

/** Binary adjacency with self loops, A + I (factored path). */
CsrMatrix binaryAdjacencyWithSelfLoops(const CsrGraph &g);

/** Element-wise ReLU in place. */
void reluInPlace(DenseMatrix &m);

} // namespace igcn
