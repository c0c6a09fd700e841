#include "spmm/spmm.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "runtime/thread_pool.hpp"
#include "spmm/row_block.hpp"

namespace igcn {

CsrMatrix
CsrMatrix::fromGraph(const CsrGraph &g)
{
    CsrMatrix m;
    m.numRows = g.numNodes();
    m.numCols = g.numNodes();
    m.rowPtr = g.rows();
    m.colIdx = g.cols();
    m.values.assign(m.colIdx.size(), 1.0f);
    return m;
}

DenseMatrix
CsrMatrix::toDense() const
{
    DenseMatrix d(numRows, numCols);
    for (NodeId r = 0; r < numRows; ++r)
        for (EdgeId e = rowPtr[r]; e < rowPtr[r + 1]; ++e)
            d.at(r, colIdx[e]) += values[e];
    return d;
}

CsrMatrix
CsrMatrix::fromArrays(NodeId num_rows, NodeId num_cols,
                      std::vector<EdgeId> row_ptr,
                      std::vector<NodeId> col_idx, std::vector<float> vals)
{
    if (row_ptr.size() != static_cast<size_t>(num_rows) + 1)
        throw std::invalid_argument(
            "CsrMatrix::fromArrays: row_ptr size " +
            std::to_string(row_ptr.size()) + " != num_rows + 1 = " +
            std::to_string(static_cast<size_t>(num_rows) + 1));
    if (row_ptr.front() != 0)
        throw std::invalid_argument(
            "CsrMatrix::fromArrays: row_ptr[0] != 0");
    if (row_ptr.back() != col_idx.size())
        throw std::invalid_argument(
            "CsrMatrix::fromArrays: row_ptr back " +
            std::to_string(row_ptr.back()) + " != entry count " +
            std::to_string(col_idx.size()));
    if (vals.size() != col_idx.size())
        throw std::invalid_argument(
            "CsrMatrix::fromArrays: values size " +
            std::to_string(vals.size()) + " != col_idx size " +
            std::to_string(col_idx.size()));
    for (NodeId r = 0; r < num_rows; ++r) {
        if (row_ptr[r] > row_ptr[r + 1])
            throw std::invalid_argument(
                "CsrMatrix::fromArrays: row_ptr not monotone at row " +
                std::to_string(r));
        for (EdgeId e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
            if (col_idx[e] >= num_cols)
                throw std::invalid_argument(
                    "CsrMatrix::fromArrays: column " +
                    std::to_string(col_idx[e]) + " out of range in row " +
                    std::to_string(r));
            if (e > row_ptr[r] && col_idx[e - 1] >= col_idx[e])
                throw std::invalid_argument(
                    "CsrMatrix::fromArrays: columns not strictly "
                    "ascending in row " +
                    std::to_string(r));
        }
    }

    CsrMatrix m;
    m.numRows = num_rows;
    m.numCols = num_cols;
    m.rowPtr = std::move(row_ptr);
    m.colIdx = std::move(col_idx);
    m.values = std::move(vals);
    return m;
}

double
CsrMatrix::density() const
{
    const double cells =
        static_cast<double>(numRows) * static_cast<double>(numCols);
    return cells > 0.0 ? static_cast<double>(nnz()) / cells : 0.0;
}

size_t
CsrMatrix::storageBytes() const
{
    return rowPtr.size() * sizeof(EdgeId) +
           colIdx.size() * sizeof(NodeId) +
           values.size() * sizeof(float);
}

const CscIndex &
CsrMatrix::csc() const
{
    return cscCache.get([this] {
        CscIndex idx;
        transposeCsrIndex(numCols, rowPtr, colIdx, idx.colPtr,
                          idx.rowOf, &values, &idx.valOf);
        return idx;
    });
}

namespace {

void
checkShapes(const CsrMatrix &a, const DenseMatrix &b)
{
    if (a.numCols != b.rows())
        throw std::invalid_argument("SpMM shape mismatch");
}

/**
 * Race-free row gather C = M * B over a compressed row index
 * (ptr, idx, val) — either a matrix's own CSR arrays or its CSC
 * adjunct (which gathers the transpose). Output rows are sharded
 * across workers, so every row of C is written by exactly one worker
 * with no speculation buffers. Each row is one weightedRowSum
 * (spmm/row_block.hpp): per register-held column block it starts at
 * +0.0f, adds the row's entries in index order and is stored once,
 * so every output element keeps its sequential chain and the result
 * is bit-identical at any thread count.
 */
void
gatherTiled(const std::vector<EdgeId> &ptr,
            const std::vector<NodeId> &idx,
            const std::vector<float> &val, const DenseMatrix &b,
            DenseMatrix &c)
{
    // Attribute the region to the calling dataflow's label when one
    // is active; only bare gather calls show up as "gather_tiled".
    KernelRegion region(currentKernelLabel() ? currentKernelLabel()
                                             : "gather_tiled");
    globalPool().parallelFor(0, c.rows(),
                             [&](int, size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
            const EdgeId e0 = ptr[r];
            detail::weightedRowSum(
                b.cols(), ptr[r + 1] - e0,
                [&](size_t t) { return val[e0 + t]; },
                [&](size_t t) { return b.row(idx[e0 + t]); },
                c.row(r));
        }
    }, /*min_per_worker=*/16);
}

/**
 * Pull-row-wise access profile (Table 1), which software tiling does
 * not change: each non-zero of A is one A read and pulls one full B
 * row irregularly; every output element is written streamed once.
 * Arithmetic in nnz and channels, so exact at every thread count.
 */
void
addPullRowWiseCounters(const CsrMatrix &a, size_t channels,
                       SpmmCounters *counters)
{
    if (!counters)
        return;
    SpmmCounters cnt;
    cnt.aReads = a.nnz();
    cnt.bIrregularReads = a.nnz() * channels;
    cnt.macOps = a.nnz() * channels;
    cnt.cStreamedWrites = static_cast<uint64_t>(a.numRows) * channels;
    *counters += cnt;
}

} // namespace

DenseMatrix
spmmPullRowWise(const CsrMatrix &a, const DenseMatrix &b,
                SpmmCounters *counters)
{
    checkShapes(a, b);
    const size_t channels = b.cols();
    DenseMatrix c(a.numRows, channels);
    KernelRegion region("spmm_pull_row_wise");

    // Rows of C are independent: shard the row range across workers
    // (gatherTiled), each row built in registers and stored once. Per
    // output element the edge accumulation order is unchanged, so the
    // result is bit-identical at any thread count.
    gatherTiled(a.rowPtr, a.colIdx, a.values, b, c);

    addPullRowWiseCounters(a, channels, counters);
    return c;
}

DenseMatrix
spmmPullInnerProduct(const CsrMatrix &a, const DenseMatrix &b,
                     SpmmCounters *counters)
{
    checkShapes(a, b);
    const size_t channels = b.cols();
    DenseMatrix c(a.numRows, channels);
    KernelRegion region("spmm_pull_inner_product");

    // Every output element is an independent inner product: shard the
    // row range across workers. Each element accumulates its row's
    // edges in ascending order regardless of the split, so the result
    // is bit-identical at any thread count.
    globalPool().parallelFor(0, a.numRows,
                             [&](int, size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i) {
            for (size_t ch = 0; ch < channels; ++ch) {
                float acc = 0.0f;
                for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e)
                    acc += a.values[e] * b.at(a.colIdx[e], ch);
                c.at(i, ch) = acc;
            }
        }
    }, /*min_per_worker=*/16);

    // Dataflow profile (Table 1): the per-channel loop re-reads each
    // non-zero of A every channel and pulls single B-column elements
    // irregularly; outputs are produced streamed one element at a
    // time. Arithmetic, so exact at every thread count.
    if (counters) {
        SpmmCounters cnt;
        cnt.aReads = a.nnz() * channels;
        cnt.bIrregularReads = a.nnz() * channels;
        cnt.macOps = a.nnz() * channels;
        cnt.cStreamedWrites =
            static_cast<uint64_t>(a.numRows) * channels;
        *counters += cnt;
    }
    return c;
}

DenseMatrix
spmmPushColumnWise(const CsrMatrix &a, const DenseMatrix &b,
                   SpmmCounters *counters)
{
    checkShapes(a, b);
    const size_t channels = b.cols();
    DenseMatrix c(a.numRows, channels);
    KernelRegion region("spmm_push_column_wise");

    // Outer loop over channels: each pass broadcasts one feature
    // channel of every node to its neighbors. We iterate the non-zeros
    // of A by row here, but A(i, k) consumes B(k, ch) and produces
    // C(i, ch); per channel, B is read streamed and C is written into
    // a column buffer (streamed if it fits on chip). Channels are
    // independent — workers own disjoint channel ranges, i.e. disjoint
    // columns of C, so each element keeps its sequential edge
    // accumulation order and the result is bit-identical at any
    // thread count.
    globalPool().parallelFor(0, channels,
                             [&](int, size_t ch0, size_t ch1) {
        for (size_t ch = ch0; ch < ch1; ++ch) {
            for (NodeId i = 0; i < a.numRows; ++i) {
                for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e)
                    c.at(i, ch) += a.values[e] * b.at(a.colIdx[e], ch);
            }
        }
    });

    // Per channel: every non-zero of A is re-read, consumes one
    // streamed element of B's channel column and read-modify-writes
    // one C element selected by the non-zero's row id.
    if (counters) {
        SpmmCounters cnt;
        cnt.aReads = a.nnz() * channels;
        cnt.bStreamedReads = a.nnz() * channels;
        cnt.macOps = a.nnz() * channels;
        cnt.cIrregularWrites = a.nnz() * channels;
        *counters += cnt;
    }
    return c;
}

DenseMatrix
spmmPushOuterProduct(const CsrMatrix &a, const DenseMatrix &b,
                     SpmmCounters *counters)
{
    checkShapes(a, b);
    const size_t channels = b.cols();
    DenseMatrix c(a.numRows, channels);
    KernelRegion region("spmm_push_outer_product");

    // The push outer-product dataflow processes non-zeros of A by
    // column k — node k broadcasts its whole feature row B(k,:) into
    // C(i,:) for every A(i,k) != 0 — and that scatter races under
    // column sharding. Executed as a gather instead, each output row
    // i pulls exactly its own non-zeros A(i,k) in ascending-k order
    // (CSR neighbor lists are sorted), which is the same per-element
    // accumulation order the column sweep produces: workers own
    // disjoint rows of C, no per-worker speculation buffers and no
    // per-call CSC rebuild, and the result is bit-identical to the
    // sequential column-order scatter at any thread count. The
    // counters below still model the logical push dataflow.
    gatherTiled(a.rowPtr, a.colIdx, a.values, b, c);

    // Per column: one streamed read of the full B row (empty columns
    // included, as the hardware prefetches the broadcast row before
    // consulting the column's non-zeros); per non-zero: one A read
    // and a full-row irregular read-modify-write of Xo.
    if (counters) {
        SpmmCounters cnt;
        cnt.bStreamedReads =
            static_cast<uint64_t>(a.numCols) * channels;
        cnt.aReads = a.nnz();
        cnt.macOps = a.nnz() * channels;
        cnt.cIrregularWrites = a.nnz() * channels;
        *counters += cnt;
    }
    return c;
}

DenseMatrix
sparseTimesDense(const CsrMatrix &x, const DenseMatrix &w,
                 SpmmCounters *counters)
{
    if (x.numCols != w.rows())
        throw std::invalid_argument("sparseTimesDense shape mismatch");
    const size_t channels = w.cols();
    DenseMatrix c(x.numRows, channels);
    KernelRegion region("sparse_times_dense");
    gatherTiled(x.rowPtr, x.colIdx, x.values, w, c);

    // Same access profile as spmmPullRowWise, so sparse and dense
    // first layers are accounted under one model.
    addPullRowWiseCounters(x, channels, counters);
    return c;
}

DenseMatrix
sparseTransposeTimesDense(const CsrMatrix &x, const DenseMatrix &b)
{
    if (x.numRows != b.rows())
        throw std::invalid_argument(
            "shape mismatch in sparseTransposeTimesDense");

    // C(j, :) = sum over non-zeros X(r, j) of X(r, j) * B(r, :): a
    // scatter in row order, but a race-free gather over the cached
    // CSC adjunct — column j of X lists exactly the non-zeros of
    // output row j, in ascending r order (the sequential scatter's
    // order), so workers own disjoint output rows and the result is
    // bit-identical to the sequential scatter at any thread count.
    // The adjunct is built once per matrix and reused across calls
    // (every training epoch hits this kernel with the same features).
    const CscIndex &csc = x.csc();
    DenseMatrix c(x.numCols, b.cols());
    KernelRegion region("sparse_transpose_times_dense");
    gatherTiled(csc.colPtr, csc.rowOf, csc.valOf, b, c);
    return c;
}

std::optional<CsrMatrix>
denseToCsrAtMost(const DenseMatrix &m, EdgeId max_nnz)
{
    CsrMatrix out;
    out.numRows = static_cast<NodeId>(m.rows());
    out.numCols = static_cast<NodeId>(m.cols());
    out.rowPtr.assign(m.rows() + 1, 0);
    KernelRegion region("dense_to_csr");

    // Pass 1 counts each row's non-zeros; a serial prefix sum places
    // the rows; pass 2 compacts every row straight into its slice.
    // Rows are disjoint, so the arrays are the same bytes however the
    // row range is split.
    const size_t cols = m.cols();
    constexpr size_t kMinRows = 64;
    globalPool().parallelFor(0, m.rows(),
                             [&](int, size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r)
            out.rowPtr[r + 1] = countNonZeros(m.row(r), cols);
    }, kMinRows);
    for (size_t r = 0; r < m.rows(); ++r)
        out.rowPtr[r + 1] += out.rowPtr[r];
    if (out.rowPtr.back() > max_nnz)
        return std::nullopt;

    out.colIdx.resize(out.rowPtr.back());
    out.values.resize(out.rowPtr.back());
    globalPool().parallelFor(0, m.rows(),
                             [&](int, size_t r0, size_t r1) {
        std::vector<uint32_t> idx(cols);
        for (size_t r = r0; r < r1; ++r) {
            const float *row = m.row(r);
            const size_t nnz = compactNonZeros(row, cols, idx.data());
            NodeId *col = out.colIdx.data() + out.rowPtr[r];
            float *val = out.values.data() + out.rowPtr[r];
            for (size_t t = 0; t < nnz; ++t) {
                col[t] = idx[t];
                val[t] = row[idx[t]];
            }
        }
    }, kMinRows);
    return out;
}

CsrMatrix
denseToCsr(const DenseMatrix &m)
{
    return *denseToCsrAtMost(m, std::numeric_limits<EdgeId>::max());
}

} // namespace igcn
