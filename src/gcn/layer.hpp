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

#include "graph/csr.hpp"
#include "spmm/spmm.hpp"

namespace igcn {

/** S = diag(1/sqrt(degree + 1)), the symmetric-normalization scaler. */
std::vector<float> degreeScaling(const CsrGraph &g);

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
 * reusing its storage across epochs and dropping its cached CSC
 * adjunct (mutating the non-zero arrays of a CsrMatrix requires
 * invalidateCsc; this is the one mutation path the online update
 * applier uses).
 */
void refreshNormalizedAdjacency(CsrMatrix &a_hat, const CsrGraph &g,
                                const std::vector<float> &s);

/** Binary adjacency with self loops, A + I (factored path). */
CsrMatrix binaryAdjacencyWithSelfLoops(const CsrGraph &g);

/** Element-wise ReLU in place. */
void reluInPlace(DenseMatrix &m);

} // namespace igcn
