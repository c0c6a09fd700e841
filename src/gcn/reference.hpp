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

#include <optional>

#include "gcn/layer.hpp"
#include "gcn/models.hpp"
#include "graph/rng.hpp"
#include "spmm/spmm.hpp"

namespace igcn {

/**
 * Input features: dense or CSR (NELL's X is far too sparse for dense).
 *
 * A dense matrix sparse enough for the CSR kernels to win carries a
 * lazily built CSR adjunct (rowsCsr()), so the first-layer
 * combination and its weight gradient run on the sparse kernels
 * without a second copy in the caller's hands. The adjunct follows
 * the LazyAdjunct rules: copies start without it, moves transfer it,
 * copy-assignment drops it, and concurrent first callers see one
 * object. Mutating `dense` after it was built requires
 * invalidateRowsCsr().
 */
struct Features
{
    /**
     * The adjunct gate: a dense X gets a CSR image only while
     * nnz <= rows * cols / kAdjunctMinSparsity. Measured at the
     * Pubmed shape (19717 x 500, 16 channels, 4 vCPUs, at 1 / 4
     * threads), the sparse kernels beat gemm and gemmTransposeA at
     * every density tried: X W by ~5x / ~3.4x at density 0.1, ~2.8x
     * / ~2.1x at 0.3 and ~3x / ~2x at 1.0; X^T dU by ~3.7x / ~3.9x,
     * ~1.7x / ~2.3x and ~1.7x / ~2.3x. So the gate bounds memory:
     * under it the CSR takes at most half the dense array's bytes,
     * at density 1.0 twice. A property of the matrix, not a tuning
     * knob.
     */
    static constexpr EdgeId kAdjunctMinSparsity = 4;

    bool sparse = false;
    DenseMatrix dense;
    CsrMatrix csr;

    size_t rows() const { return sparse ? csr.numRows : dense.rows(); }
    size_t cols() const { return sparse ? csr.numCols : dense.cols(); }
    EdgeId nnz() const;

    /** Heap bytes of the active representation; the CSR adjunct of
     *  dense features (rowsCsr()) is derived state and not counted. */
    size_t storageBytes() const;

    /**
     * The rows as CSR, for the sparse combination kernels: &csr for
     * CSR features; for dense ones, the cached denseToCsr(dense) when
     * it passes the kAdjunctMinSparsity gate, else nullptr. The
     * first call counts (and, under the gate, compacts) `dense` on
     * the thread pool; the outcome is cached either way.
     */
    const CsrMatrix *rowsCsr() const;

    /** Drop the cached adjunct (call after mutating `dense`). */
    void invalidateRowsCsr() const { denseCsr.invalidate(); }

  private:
    LazyAdjunct<std::optional<CsrMatrix>> denseCsr;
};

/**
 * X W, the first-layer combination: sparseTimesDense on
 * x.rowsCsr() when there is one, gemm on the dense array otherwise.
 * Both accumulate each output element in ascending-k order over the
 * same terms, so the routes give byte-equal results.
 */
DenseMatrix featuresTimesDense(const Features &x, const DenseMatrix &w);

/**
 * X^T B, the first-layer weight gradient: sparseTransposeTimesDense
 * on x.rowsCsr() when there is one (gathering through that matrix's
 * CSC adjunct: x.csr's for CSR features, the feature adjunct's own
 * for dense ones), gemmTransposeA on the dense array otherwise.
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
