/**
 * @file
 * Sparse-dense matrix multiplication in the four dataflows the paper
 * analyzes (Figure 2): PULL-Row-Wise, PULL-Inner-Product,
 * PUSH-Column-Wise and PUSH-Outer-Product, plus the sparse feature
 * combination kernels (X W and X^T B for CSR features).
 *
 * All four dataflows compute the same product Xo = A * B; they
 * differ in loop order and therefore in which operand is reused and
 * which is accessed irregularly. Each kernel reports access counters
 * that the Table 1 benchmark turns into the paper's qualitative
 * comparison. CsrMatrix is the one float CSR type: the normalized
 * adjacency and a sparse feature matrix share it.
 */

#pragma once

#include <cstdint>
#include <span>

#include "graph/csr.hpp"
#include "spmm/dense.hpp"

namespace igcn {

/**
 * Column-major (CSC) adjunct of a CsrMatrix: the same non-zeros
 * grouped by column, i.e. the transpose view. colPtr[k]..colPtr[k+1]
 * spans column k; within a column, entries are in ascending row
 * order (the CSR rows are swept ascending at build time), so a
 * gather over the CSC replays the row-ascending accumulation order
 * of a column-order scatter exactly.
 */
struct CscIndex
{
    std::vector<EdgeId> colPtr; ///< size numCols + 1
    std::vector<NodeId> rowOf;  ///< row id per non-zero
    std::vector<float> valOf;   ///< value per non-zero
};

/**
 * Sparse CSR matrix of floats: a normalized adjacency, or a feature
 * matrix X (rows are nodes, columns feature channels). The paper's
 * NELL-style workloads carry features of ~0.01 density, where dense
 * storage wastes ~100x memory and first-layer FLOPs. Explicitly
 * stored zeros are permitted (a stored 0.0f is a structural entry,
 * not an error), so adopting arrays never changes the sparsity
 * structure.
 *
 * Builders (fromGraph, denseToCsr, makeFeatures, the adjacency
 * normalizers) fill the public arrays directly and are responsible
 * for the invariants; arrays from untrusted or derived sources go
 * through fromArrays, which validates in O(nnz).
 */
struct CsrMatrix
{
    NodeId numRows = 0;
    NodeId numCols = 0;
    std::vector<EdgeId> rowPtr{0}; ///< size numRows + 1
    std::vector<NodeId> colIdx;    ///< size nnz
    std::vector<float> values;     ///< size nnz, parallel to colIdx

    /** Stored entry count (including explicit zeros). */
    EdgeId nnz() const { return colIdx.size(); }

    /** Unweighted adjacency (all values 1) from a graph. */
    [[nodiscard]] static CsrMatrix fromGraph(const CsrGraph &g);

    /**
     * Adopt prebuilt arrays with O(nnz) validation: rowPtr starts at
     * 0, is monotone, has size num_rows + 1, and ends at
     * col_idx.size(); values parallels col_idx; every row's columns
     * are strictly ascending and < num_cols.
     * @throws std::invalid_argument on any violation.
     */
    [[nodiscard]] static CsrMatrix fromArrays(NodeId num_rows,
                                              NodeId num_cols,
                                              std::vector<EdgeId> row_ptr,
                                              std::vector<NodeId> col_idx,
                                              std::vector<float> vals);

    /** Dense copy, for verification on small matrices only. */
    DenseMatrix toDense() const;

    /** nnz / (rows * cols); 0 for a degenerate empty matrix. */
    double density() const;

    /** Heap bytes of the three CSR arrays (the memory scoreboard). */
    size_t storageBytes() const;

    /**
     * The cached CSC adjunct, built lazily on first use (thread-safe
     * one-time construction; concurrent first callers all see the
     * same object). sparseTransposeTimesDense gathers through it
     * instead of rebuilding a transpose per call. Mutating rowPtr /
     * colIdx / values after the cache was built requires
     * invalidateCsc(); copies and assignments start with an empty
     * cache.
     */
    const CscIndex &csc() const;

    /** Drop the cached CSC (call after mutating the non-zeros). */
    void invalidateCsc() const { cscCache.invalidate(); }

    /** Equality over dimensions and arrays; the CSC cache is ignored. */
    bool operator==(const CsrMatrix &other) const = default;

  private:
    LazyAdjunct<CscIndex> cscCache;
};

/**
 * Access counters for one SpMM execution. "Irregular" accesses are
 * those whose address depends on a non-zero's coordinate (the ones
 * that defeat caches); "streamed" accesses are sequential.
 */
struct SpmmCounters
{
    uint64_t macOps = 0;           ///< multiply-accumulate operations
    uint64_t aReads = 0;           ///< non-zeros of A touched
    uint64_t bStreamedReads = 0;   ///< sequential element reads of B
    uint64_t bIrregularReads = 0;  ///< indexed element reads of B
    uint64_t cStreamedWrites = 0;  ///< sequential element writes of Xo
    uint64_t cIrregularWrites = 0; ///< indexed read-modify-writes of Xo

    SpmmCounters &
    operator+=(const SpmmCounters &o)
    {
        macOps += o.macOps;
        aReads += o.aReads;
        bStreamedReads += o.bStreamedReads;
        bIrregularReads += o.bIrregularReads;
        cStreamedWrites += o.cStreamedWrites;
        cIrregularWrites += o.cIrregularWrites;
        return *this;
    }
};

/**
 * PULL-Row-Wise (Figure 2-b1): rows of Xo produced in order; for each
 * non-zero A(i,k), the entire row B(k,:) is fetched and accumulated.
 */
DenseMatrix spmmPullRowWise(const CsrMatrix &a, const DenseMatrix &b,
                            SpmmCounters *counters = nullptr);

/**
 * Row-subset PULL-Row-Wise: output row i accumulates row rows[i] of
 * a, where a's column j reads row b_row_of[j] of b (row j when
 * b_row_of is empty). Every entry of a row the kernel reads must map
 * to a valid row of b; entries of other rows are never read, so
 * b_row_of may hold anything there.
 *
 * Rows i with skip[i] != 0 (skip empty = none) are left exactly as
 * the caller pre-filled them; every other row of c must arrive
 * zeroed. Entries are summed in the same order, with the same
 * channel tiling and one owner per row, as spmmPullRowWise, so an
 * output row is bit-identical to row rows[i] of spmmPullRowWise(a,
 * B') where B' row j = b row b_row_of[j], at any IGCN_THREADS. The
 * serving engine pulls each GCN layer on one frontier this way, and
 * its aggregation cache substitutes skipped rows
 * (serve/agg_cache.hpp).
 *
 * @throws std::invalid_argument on a column map that is not
 * a.numCols long, a.numCols != b.rows() without one, a skip mask
 * that is not rows.size() long, or c not rows.size() x b.cols();
 * std::out_of_range on a row >= a.numRows.
 */
void spmmPullRows(const CsrMatrix &a, std::span<const NodeId> rows,
                  const DenseMatrix &b, std::span<const NodeId> b_row_of,
                  DenseMatrix &c, std::span<const uint8_t> skip = {});

/**
 * PULL-Inner-Product (Figure 2-b2): output elements produced one
 * channel at a time; B is fetched column-by-column.
 */
DenseMatrix spmmPullInnerProduct(const CsrMatrix &a, const DenseMatrix &b,
                                 SpmmCounters *counters = nullptr);

/**
 * PUSH-Column-Wise (Figure 2-c1): outer loop over channels; each
 * node broadcasts its channel-k feature to its neighbors; Xo is
 * updated column by column.
 */
DenseMatrix spmmPushColumnWise(const CsrMatrix &a, const DenseMatrix &b,
                               SpmmCounters *counters = nullptr);

/**
 * PUSH-Outer-Product (Figure 2-c2): non-zeros of A processed by
 * column; each node's full feature row is broadcast to its neighbors
 * and Xo rows are updated irregularly.
 */
DenseMatrix spmmPushOuterProduct(const CsrMatrix &a, const DenseMatrix &b,
                                 SpmmCounters *counters = nullptr);

/** Convert a dense matrix into CSR form (exact, drops zeros). */
CsrMatrix denseToCsr(const DenseMatrix &m);

/**
 * C = X * W for CSR features X (rows x k) and dense W (k x n): the
 * sparse first-layer combination kernel. Executes as the same
 * channel-tiled race-free row gather as spmmPullRowWise and reports
 * the pull-row-wise Table-1 access profile (aReads = nnz,
 * bIrregularReads = macOps = nnz * n, cStreamedWrites = rows * n) so
 * the accel models account sparse and dense inputs under one model.
 * Per output element the stored entries accumulate in ascending
 * column order — exactly the order dense gemm accumulates its
 * non-zero a(i,k) terms — so on a densified copy of X the result is
 * bit-identical to gemm, at any IGCN_THREADS.
 */
DenseMatrix sparseTimesDense(const CsrMatrix &x, const DenseMatrix &w,
                             SpmmCounters *counters = nullptr);

/**
 * C = X^T * B for CSR X (rows x k) and dense B (rows x n): the
 * backward-pass weight-gradient kernel for sparse features. A
 * race-free gather over X's cached CSC adjunct: workers own disjoint
 * output rows (columns of X) and each output element accumulates its
 * column's non-zeros in ascending row order — the sequential
 * scatter's order — so the result is bit-identical to the sequential
 * kernel at any thread count.
 */
DenseMatrix sparseTransposeTimesDense(const CsrMatrix &x,
                                      const DenseMatrix &b);

} // namespace igcn
