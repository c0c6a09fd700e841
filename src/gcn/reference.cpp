#include "gcn/reference.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace igcn {

EdgeId
Features::nnz() const
{
    if (sparse)
        return csr.nnz();
    return dense.countNonZeros();
}

size_t
Features::storageBytes() const
{
    if (sparse)
        return csr.storageBytes();
    return dense.rows() * dense.cols() * sizeof(float);
}

const CsrMatrix *
Features::rowsCsr() const
{
    if (sparse)
        return &csr;
    const std::optional<CsrMatrix> &built = denseCsr.get([this] {
        const EdgeId cells = static_cast<EdgeId>(dense.rows()) *
                             static_cast<EdgeId>(dense.cols());
        return denseToCsrAtMost(dense, cells / kAdjunctMinSparsity);
    });
    return built ? &*built : nullptr;
}

DenseMatrix
featuresTimesDense(const Features &x, const DenseMatrix &w)
{
    if (const CsrMatrix *rows = x.rowsCsr())
        return sparseTimesDense(*rows, w);
    return gemm(x.dense, w);
}

DenseMatrix
featuresTransposeTimesDense(const Features &x, const DenseMatrix &b)
{
    if (const CsrMatrix *rows = x.rowsCsr())
        return sparseTransposeTimesDense(*rows, b);
    return gemmTransposeA(x.dense, b);
}

Features
makeFeatures(NodeId num_nodes, int num_features, double density, Rng &rng,
             bool force_sparse)
{
    // The sparse branch stores at least one entry per row, which a
    // zero-column matrix cannot hold.
    if (num_features < 1)
        throw std::invalid_argument(
            "makeFeatures: num_features must be >= 1, got " +
            std::to_string(num_features));
    Features f;
    // Dense storage of very sparse, very wide matrices (NELL) would
    // need tens of GB; switch to CSR beyond a size/density threshold.
    const double cells =
        static_cast<double>(num_nodes) * num_features;
    f.sparse = force_sparse || (cells > 64e6 && density < 0.05);
    if (!f.sparse) {
        f.dense = DenseMatrix(num_nodes, num_features);
        if (density >= 1.0)
            f.dense.fillRandom(rng, 1.0f);
        else
            f.dense.fillRandomSparse(rng, density, 1.0f);
        return f;
    }
    CsrMatrix &m = f.csr;
    m.numRows = num_nodes;
    m.numCols = static_cast<NodeId>(num_features);
    // `f` was default-constructed above, so the CSC cache behind this
    // reference has never been built. igcn-lint: allow(csc-invalidate)
    m.rowPtr.assign(num_nodes + 1, 0);
    // Fixed nnz-per-row expectation keeps generation O(nnz) instead of
    // O(cells) for the huge sparse case.
    const double per_row = density * num_features;
    for (NodeId v = 0; v < num_nodes; ++v) {
        auto count = static_cast<int>(per_row);
        if (rng.nextDouble() < per_row - count)
            count++;
        count = std::max(count, 1);
        std::vector<NodeId> cols;
        cols.reserve(count);
        for (int i = 0; i < count; ++i)
            cols.push_back(static_cast<NodeId>(
                rng.nextBounded(num_features)));
        std::sort(cols.begin(), cols.end());
        cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
        for (NodeId c : cols) {
            // Fresh matrix, see above. igcn-lint: allow(csc-invalidate)
            m.colIdx.push_back(c);
            float val = rng.nextFloat(1.0f);
            // igcn-lint: allow(csc-invalidate)
            m.values.push_back(val == 0.0f ? 0.5f : val);
        }
        m.rowPtr[v + 1] = m.colIdx.size();
    }
    return f;
}

std::vector<DenseMatrix>
makeWeights(const ModelConfig &cfg, Rng &rng)
{
    std::vector<DenseMatrix> weights;
    weights.reserve(cfg.layers.size());
    for (const LayerDims &l : cfg.layers) {
        DenseMatrix w(l.inChannels, l.outChannels);
        // Glorot-style scale keeps activations in range across layers.
        float scale = 1.0f / std::sqrt(static_cast<float>(l.inChannels));
        w.fillRandom(rng, scale);
        weights.push_back(std::move(w));
    }
    return weights;
}

DenseMatrix
referenceForward(const CsrGraph &g, const Features &x,
                 const std::vector<DenseMatrix> &weights)
{
    if (weights.empty())
        throw std::invalid_argument("no layers");
    CsrMatrix a_hat = normalizedAdjacency(g);
    DenseMatrix current;
    for (size_t l = 0; l < weights.size(); ++l) {
        DenseMatrix xw = (l == 0)
            ? featuresTimesDense(x, weights[l])
            : gemm(current, weights[l]);
        current = spmmPullRowWise(a_hat, xw);
        if (l + 1 < weights.size())
            reluInPlace(current);
    }
    return current;
}

DenseMatrix
factoredForward(const CsrGraph &g, const Features &x,
                const std::vector<DenseMatrix> &weights)
{
    if (weights.empty())
        throw std::invalid_argument("no layers");
    CsrMatrix a_bin = binaryAdjacencyWithSelfLoops(g);
    std::vector<float> s = degreeScaling(g);
    DenseMatrix current;
    for (size_t l = 0; l < weights.size(); ++l) {
        DenseMatrix xw = (l == 0)
            ? featuresTimesDense(x, weights[l])
            : gemm(current, weights[l]);
        scaleRows(xw, s);
        current = spmmPullRowWise(a_bin, xw);
        scaleRows(current, s);
        if (l + 1 < weights.size())
            reluInPlace(current);
    }
    return current;
}

} // namespace igcn
