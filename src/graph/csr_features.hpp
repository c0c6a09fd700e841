/**
 * @file
 * Compressed Sparse Row feature matrix.
 *
 * The paper's NELL-style workloads carry node features of ~0.01
 * density; storing X dense wastes ~100x memory and first-layer FLOPs.
 * CsrFeatures is the float-valued CSR container for such an X: the
 * same rowPtr/colIdx layout as CsrGraph plus a parallel values array,
 * living in the graph layer so datasets can build it and every
 * consumer (training, serving, accel models) shares one storage type.
 * Kernels over it (sparseTimesDense) live in src/spmm/, which also
 * owns the dense<->sparse conversions — this header has no dependency
 * on DenseMatrix.
 */

#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace igcn {

/** One row of a CsrFeatures matrix: parallel column/value spans. */
struct FeatureRow
{
    std::span<const NodeId> cols; ///< strictly ascending column ids
    std::span<const float> vals;  ///< value per column entry
};

/**
 * Immutable-by-convention CSR feature matrix. Rows are nodes, columns
 * are feature channels; each row's columns are strictly ascending and
 * in range. Explicitly stored zeros are permitted (a stored 0.0f is a
 * structural entry, not an error) so adopting arrays never silently
 * changes sparsity structure.
 *
 * Builders (makeFeatures, denseToCsrFeatures) may fill the public
 * arrays directly and are responsible for the invariants; arrays from
 * untrusted or derived sources go through fromArrays, which validates
 * in O(nnz). The cached CSC view follows the LazyAdjunct rules of
 * CsrGraph::inEdges(): derived state, never identity.
 */
struct CsrFeatures
{
    NodeId numRows = 0;
    NodeId numCols = 0;
    std::vector<EdgeId> rowPtr{0}; ///< size numRows + 1
    std::vector<NodeId> colIdx;    ///< size nnz, ascending per row
    std::vector<float> values;     ///< size nnz, parallel to colIdx

    /**
     * Adopt prebuilt arrays with O(nnz) validation: rowPtr starts at
     * 0, is monotone, has size num_rows + 1, and ends at
     * col_idx.size(); values parallels col_idx; every row's columns
     * are strictly ascending and < num_cols.
     * @throws std::invalid_argument on any violation.
     */
    [[nodiscard]] static CsrFeatures fromArrays(NodeId num_rows,
                                  NodeId num_cols,
                                  std::vector<EdgeId> row_ptr,
                                  std::vector<NodeId> col_idx,
                                  std::vector<float> vals);

    /** Stored entry count (including explicit zeros). */
    EdgeId nnz() const { return static_cast<EdgeId>(colIdx.size()); }

    /** Stored entries per row. */
    NodeId
    rowNnz(NodeId r) const
    {
        return static_cast<NodeId>(rowPtr[r + 1] - rowPtr[r]);
    }

    /** Row r as parallel column/value spans. */
    FeatureRow
    row(NodeId r) const
    {
        return {{colIdx.data() + rowPtr[r], colIdx.data() + rowPtr[r + 1]},
                {values.data() + rowPtr[r], values.data() + rowPtr[r + 1]}};
    }

    /** nnz / (rows * cols); 0 for a degenerate empty matrix. */
    double density() const;

    /** Heap bytes of the three CSR arrays (the memory scoreboard). */
    size_t storageBytes() const;

    /**
     * Column-major (CSC) view, for X^T-side products in the training
     * backward pass. Entries within a column are in ascending row
     * order. Built lazily once and cached; see LazyAdjunct for the
     * copy/move/equality rules.
     */
    struct CscView
    {
        std::vector<EdgeId> colPtr; ///< size numCols + 1
        std::vector<NodeId> rowOf;  ///< row id per entry
        std::vector<float> valOf;   ///< value per entry
    };

    /** The cached CSC view (lazily built, shared by reference). */
    const CscView &csc() const;

    /** Equality over dimensions and arrays; the CSC cache is ignored. */
    bool operator==(const CsrFeatures &other) const = default;

  private:
    LazyAdjunct<CscView> cscCache;
};

} // namespace igcn
