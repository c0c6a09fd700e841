/**
 * @file
 * Reference (golden) GCN forward pass on the CPU.
 *
 * Two mathematically identical paths are provided: the textbook
 * weighted path (explicit A_hat) and the factored path (row scaling +
 * binary aggregation) that I-GCN's hardware uses. The test suite
 * checks both against each other and against the Island Consumer.
 */

#pragma once

#include "gcn/layer.hpp"
#include "gcn/models.hpp"
#include "graph/rng.hpp"
#include "spmm/spmm.hpp"

namespace igcn {

/** Input features: dense or CSR (NELL's X is far too sparse for dense). */
struct Features
{
    bool sparse = false;
    DenseMatrix dense;
    CsrMatrix csr;

    size_t rows() const { return sparse ? csr.numRows : dense.rows(); }
    size_t cols() const { return sparse ? csr.numCols : dense.cols(); }
    EdgeId nnz() const;

    /** Heap bytes of the active representation. */
    size_t storageBytes() const;
};

/**
 * X W, the first-layer combination: sparseTimesDense on CSR
 * features, gemm on dense ones. Both accumulate each output element
 * in ascending-k order, so the two layouts give byte-equal results.
 */
DenseMatrix featuresTimesDense(const Features &x, const DenseMatrix &w);

/**
 * X^T B, the first-layer weight gradient: sparseTransposeTimesDense
 * on CSR features (gathering through the CSC adjunct cached on
 * x.csr), gemmTransposeA on dense ones.
 */
DenseMatrix featuresTransposeTimesDense(const Features &x,
                                        const DenseMatrix &b);

/**
 * Deterministic random features with a given density.
 * @throws std::invalid_argument when num_features < 1.
 */
Features makeFeatures(NodeId num_nodes, int num_features, double density,
                      Rng &rng, bool force_sparse = false);

/** Deterministic random weight matrices for every layer of a model. */
std::vector<DenseMatrix> makeWeights(const ModelConfig &cfg, Rng &rng);

/**
 * Golden forward pass: X(l+1) = relu(A_hat X(l) W(l)), no activation
 * after the last layer. Combination-first order (A (X W)).
 */
DenseMatrix referenceForward(const CsrGraph &g, const Features &x,
                             const std::vector<DenseMatrix> &weights);

/**
 * Factored forward pass used by the accelerator: per layer,
 * Y = S (X W); Z = (A + I) Y with binary accumulation; out = S Z.
 */
DenseMatrix factoredForward(const CsrGraph &g, const Features &x,
                            const std::vector<DenseMatrix> &weights);

} // namespace igcn
