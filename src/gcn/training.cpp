#include "gcn/training.hpp"

#include <cmath>
#include <stdexcept>

#include "runtime/thread_pool.hpp"

namespace igcn {

void
reluBackwardInPlace(DenseMatrix &grad, const DenseMatrix &pre)
{
    if (grad.rows() != pre.rows() || grad.cols() != pre.cols())
        throw std::invalid_argument(
            "reluBackwardInPlace: grad and pre shapes differ");
    auto &gd = grad.data();
    const auto &pd = pre.data();
    KernelRegion region("relu_backward");
    globalPool().parallelFor(0, gd.size(),
                             [&](int, size_t lo, size_t hi) {
        // A select, as in reluInPlace: bit-equal to
        // `if (pre <= 0) grad = 0`, NaN pre-activations included.
        for (size_t i = lo; i < hi; ++i)
            gd[i] = pd[i] <= 0.0f ? 0.0f : gd[i];
    }, /*min_per_worker=*/65536);
}

ForwardCache
trainingForward(const CsrGraph &g, const IslandizationResult &isl,
                const Features &x,
                const std::vector<DenseMatrix> &weights,
                const RedundancyConfig &cfg)
{
    if (weights.empty())
        throw std::invalid_argument("no layers");
    std::vector<float> s = degreeScaling(g);

    ForwardCache cache;
    cache.plan = std::make_shared<const IslandPlan>(
        compileIslandPlan(g, isl, cfg));
    DenseMatrix current;
    for (size_t l = 0; l < weights.size(); ++l) {
        cache.layerInputs.push_back(l == 0 ? DenseMatrix{} : current);
        DenseMatrix u = (l == 0)
            ? featuresTimesDense(x, weights[l])
            : gemm(current, weights[l]);
        scaleRows(u, s);
        DenseMatrix z = replayIslandPlan(*cache.plan, u);
        scaleRows(z, s);
        cache.preActivations.push_back(z);
        current = std::move(z);
        if (l + 1 < weights.size())
            reluInPlace(current);
    }
    cache.output = current;
    return cache;
}

double
mseLoss(const DenseMatrix &output, const DenseMatrix &target,
        DenseMatrix *grad_out)
{
    if (output.rows() != target.rows() ||
        output.cols() != target.cols())
        throw std::invalid_argument("shape mismatch in mseLoss");
    const double n = static_cast<double>(output.data().size());
    double loss = 0.0;
    if (grad_out)
        *grad_out = DenseMatrix(output.rows(), output.cols());
    for (size_t i = 0; i < output.data().size(); ++i) {
        // Serial loss accumulation: a fixed summation order, so the
        // widening is itself deterministic and the extra precision is
        // wanted here. igcn-lint: allow(no-mixed-accumulation)
        const double diff = static_cast<double>(output.data()[i]) -
            target.data()[i];
        loss += diff * diff;
        if (grad_out)
            grad_out->data()[i] =
                static_cast<float>(2.0 * diff / n);
    }
    return loss / n;
}

Gradients
trainingBackward(const CsrGraph &g, const IslandizationResult &isl,
                 const Features &x,
                 const std::vector<DenseMatrix> &weights,
                 const ForwardCache &cache,
                 const DenseMatrix &grad_output,
                 const RedundancyConfig &cfg)
{
    const size_t num_layers = weights.size();
    std::vector<float> s = degreeScaling(g);
    std::shared_ptr<const IslandPlan> plan = cache.plan;
    if (plan && plan->numNodes != g.numNodes())
        throw std::invalid_argument(
            "cached island plan node count != graph node count");
    if (!plan || plan->cfg != cfg)
        plan = std::make_shared<const IslandPlan>(
            compileIslandPlan(g, isl, cfg));

    Gradients grads;
    grads.weightGrads.resize(num_layers);

    // G = dL/d(preActivation of layer l), walked backwards.
    DenseMatrix grad = grad_output;
    for (size_t l = num_layers; l-- > 0;) {
        if (l + 1 < num_layers)
            reluBackwardInPlace(grad, cache.preActivations[l]);

        // Backward through S (A+I) S, reusing the island consumer:
        // A_hat is symmetric, so the same binary aggregation applies.
        scaleRows(grad, s);
        DenseMatrix du =
            replayIslandPlan(*plan, grad, &grads.backwardAggOps);
        scaleRows(du, s);

        // dW = X(l)^T dU. Layer 0 gathers through the CSC adjunct of
        // x.rowsCsr() (x.csr, or a dense X's cached CSR image): built
        // on the first backward pass, reused by every later epoch.
        grads.weightGrads[l] =
            l == 0 ? featuresTransposeTimesDense(x, du)
                   : gemmTransposeA(cache.layerInputs[l], du);

        // dX(l) = dU W(l)^T, the upstream gradient.
        if (l > 0)
            grad = gemmTransposeB(du, weights[l]);
    }
    return grads;
}

void
sgdStep(std::vector<DenseMatrix> &weights, const Gradients &grads,
        float lr)
{
    if (weights.size() != grads.weightGrads.size())
        throw std::invalid_argument("weight/grad count mismatch");
    for (size_t l = 0; l < weights.size(); ++l) {
        auto &w = weights[l].data();
        const auto &gw = grads.weightGrads[l].data();
        if (w.size() != gw.size())
            throw std::invalid_argument("weight/grad shape mismatch");
        for (size_t i = 0; i < w.size(); ++i)
            w[i] -= lr * gw[i];
    }
}

} // namespace igcn
