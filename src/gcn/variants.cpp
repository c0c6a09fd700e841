#include "gcn/variants.hpp"

#include <optional>
#include <stdexcept>

namespace igcn {

namespace {

/** Row scale by 1 / (degree + 1): GraphSage mean normalization. */
std::vector<float>
meanScaling(const CsrGraph &g)
{
    std::vector<float> s(g.numNodes());
    for (NodeId v = 0; v < g.numNodes(); ++v)
        s[v] = 1.0f / (static_cast<float>(g.degree(v)) + 1.0f);
    return s;
}

/** Add scale * y into z, row-wise. */
void
addScaled(DenseMatrix &z, const DenseMatrix &y, float scale)
{
    for (size_t i = 0; i < z.data().size(); ++i)
        z.data()[i] += scale * y.data()[i];
}

/**
 * One aggregation step, selected by variant, using the given binary
 * aggregation functor agg(y, include_self) -> (A [+I]) y.
 */
template <typename AggFn>
DenseMatrix
aggregateVariant(const CsrGraph &g, const VariantOptions &opt,
                 DenseMatrix xw, AggFn &&agg)
{
    switch (opt.model) {
      case Model::GCN: {
        std::vector<float> s = degreeScaling(g);
        scaleRows(xw, s);
        DenseMatrix z = agg(xw, /*include_self=*/true);
        scaleRows(z, s);
        return z;
      }
      case Model::GraphSage: {
        DenseMatrix z = agg(xw, /*include_self=*/true);
        std::vector<float> s = meanScaling(g);
        scaleRows(z, s);
        return z;
      }
      case Model::GIN: {
        DenseMatrix z = agg(xw, /*include_self=*/false);
        addScaled(z, xw, 1.0f + opt.ginEpsilon);
        return z;
      }
    }
    throw std::invalid_argument("unknown model variant");
}

} // namespace

DenseMatrix
variantForward(const CsrGraph &g, const Features &x,
               const std::vector<DenseMatrix> &weights,
               const VariantOptions &opt)
{
    if (weights.empty())
        throw std::invalid_argument("no layers");
    CsrMatrix a_self = binaryAdjacencyWithSelfLoops(g);
    CsrMatrix a_raw = CsrMatrix::fromGraph(g);

    DenseMatrix current;
    for (size_t l = 0; l < weights.size(); ++l) {
        DenseMatrix xw = (l == 0) ? featuresTimesDense(x, weights[l])
                                  : gemm(current, weights[l]);
        current = aggregateVariant(
            g, opt, std::move(xw),
            [&](const DenseMatrix &y, bool include_self) {
                return spmmPullRowWise(
                    include_self ? a_self : a_raw, y);
            });
        if (l + 1 < weights.size())
            reluInPlace(current);
    }
    return current;
}

DenseMatrix
variantForwardViaIslands(const CsrGraph &g,
                         const IslandizationResult &isl,
                         const Features &x,
                         const std::vector<DenseMatrix> &weights,
                         const VariantOptions &opt,
                         const RedundancyConfig &cfg,
                         AggOpStats *stats)
{
    if (weights.empty())
        throw std::invalid_argument("no layers");
    // One plan per self-loop flag, compiled on first use and replayed
    // by every later layer.
    std::optional<IslandPlan> plans[2];
    DenseMatrix current;
    for (size_t l = 0; l < weights.size(); ++l) {
        DenseMatrix xw = (l == 0) ? featuresTimesDense(x, weights[l])
                                  : gemm(current, weights[l]);
        current = aggregateVariant(
            g, opt, std::move(xw),
            [&](const DenseMatrix &y, bool include_self) {
                std::optional<IslandPlan> &plan = plans[include_self];
                if (!plan)
                    plan = compileIslandPlan(g, isl, cfg, include_self);
                return replayIslandPlan(*plan, y, stats);
            });
        if (l + 1 < weights.size())
            reluInPlace(current);
    }
    return current;
}

} // namespace igcn
