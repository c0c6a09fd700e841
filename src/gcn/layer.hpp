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
 * A_hat of g with caller-supplied scaling: entry (u, v) = s[u]*s[v],
 * self loop s[u]^2 inserted at its sorted position. Equal to
 * normalizedAdjacency when s = degreeScaling(g). The serving engine
 * passes *full-graph* scaling for an extracted receptive subgraph, so
 * fringe truncation never changes a node's normalization.
 */
CsrMatrix normalizedAdjacencyScaled(const CsrGraph &g,
                                    const std::vector<float> &s);

/**
 * Rebuild a_hat from (g, s) in place, reusing its storage across
 * epochs and dropping its cached CSC adjunct (mutating the non-zero
 * arrays of a CsrMatrix requires invalidateCsc; this is the one
 * mutation path the online update applier uses).
 */
void refreshNormalizedAdjacency(CsrMatrix &a_hat, const CsrGraph &g,
                                const std::vector<float> &s);

/**
 * Batched-subgraph forward entry point: the referenceForward layer
 * chain (A_hat X W with combination-first order and inter-layer
 * ReLU) over an extracted L-hop subgraph. `scale` and `x` are the
 * full-graph degree scaling and input features gathered to the
 * subgraph's local ids. Kernels, loop orders, and per-row
 * accumulation order are identical to the whole-graph pass, so rows
 * of nodes whose L-hop neighborhood is inside the subgraph — in
 * particular every extraction target — are bit-identical to
 * referenceForward on the whole graph.
 */
DenseMatrix subgraphForward(const CsrGraph &sub,
                            const std::vector<float> &scale,
                            const DenseMatrix &x,
                            const std::vector<DenseMatrix> &weights);

/**
 * Sparse-input overload: the first layer consumes CSR features
 * directly (sparseTimesDense — no densification). sparseTimesDense
 * accumulates each output element's stored entries in ascending
 * column order, the same order gemm accumulates its non-zero a(i,k)
 * terms, so on features whose dense image is x this overload is
 * bit-identical to the dense subgraphForward; layers past the first
 * share the exact dense chain.
 */
DenseMatrix subgraphForward(const CsrGraph &sub,
                            const std::vector<float> &scale,
                            const CsrFeatures &x,
                            const std::vector<DenseMatrix> &weights);

/**
 * The layer chain past layer 0: given layer 0's pre-activation output
 * h1 = A_hat X W0, apply ReLU, combine with weights[l] and aggregate
 * over a_hat for every layer l >= 1. Both subgraphForward overloads
 * and the serving engine run this one sequence from their layer-0
 * product, so the rows they share are bit-identical.
 */
DenseMatrix forwardPastLayer0(const CsrMatrix &a_hat, DenseMatrix h1,
                              const std::vector<DenseMatrix> &weights);

/** Binary adjacency with self loops, A + I (factored path). */
CsrMatrix binaryAdjacencyWithSelfLoops(const CsrGraph &g);

/** Element-wise ReLU in place. */
void reluInPlace(DenseMatrix &m);

} // namespace igcn
