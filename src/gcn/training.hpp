/**
 * @file
 * GCN training through island-based aggregation (extension).
 *
 * The paper targets inference, but notes GraphACT accelerates
 * *training* with offline shared-neighbor pre-processing; runtime
 * islandization removes that preprocessing for training too. The key
 * observation: with A_hat = S (A + I) S symmetric, the backward pass
 * aggregates with the *same* binary structure as the forward pass —
 * dX(l) = A_hat dZ(l) W(l)^T (masked by the ReLU), so the Island
 * Consumer (and its redundancy removal) is reused verbatim for
 * gradients.
 *
 * Implemented: forward with cached activations, mean-squared-error
 * loss, full backward producing weight gradients, and an SGD step.
 * The test suite checks the analytic gradients against central
 * finite differences.
 */

#pragma once

#include <memory>

#include "core/consumer.hpp"
#include "gcn/reference.hpp"

namespace igcn {

/** Cached per-layer state from the forward pass. */
struct ForwardCache
{
    /** Input to each layer's combination (X(l)); [0] is always
     *  empty — layer 0 reads the Features object itself. */
    std::vector<DenseMatrix> layerInputs;
    /** Pre-activation outputs S (A+I) S X W of each layer. */
    std::vector<DenseMatrix> preActivations;
    /** Final output. */
    DenseMatrix output;
    /** The Island Consumer plan the forward pass replayed; the
     *  backward pass replays it too. */
    std::shared_ptr<const IslandPlan> plan;
};

/** Result of one backward pass. */
struct Gradients
{
    std::vector<DenseMatrix> weightGrads;
    /** Aggregation op accounting of the backward pass. */
    AggOpStats backwardAggOps;
};

/**
 * Forward pass with cached intermediates, executed through the
 * Island Consumer. Compiles the island plan once and stores it in
 * the cache.
 */
ForwardCache trainingForward(const CsrGraph &g,
                             const IslandizationResult &isl,
                             const Features &x,
                             const std::vector<DenseMatrix> &weights,
                             const RedundancyConfig &cfg = {});

/** Mean-squared-error loss and its gradient w.r.t. the output. */
double mseLoss(const DenseMatrix &output, const DenseMatrix &target,
               DenseMatrix *grad_out = nullptr);

/**
 * Backward pass: given dL/d(output), produce dL/dW for every layer,
 * aggregating gradients through the islands by replaying the
 * forward's plan (recompiled from g and isl if cfg differs from the
 * one it was compiled under, or the cache holds none).
 *
 * @throws std::invalid_argument if the cached plan was compiled for a
 *         graph with a different node count.
 */
Gradients trainingBackward(const CsrGraph &g,
                           const IslandizationResult &isl,
                           const Features &x,
                           const std::vector<DenseMatrix> &weights,
                           const ForwardCache &cache,
                           const DenseMatrix &grad_output,
                           const RedundancyConfig &cfg = {});

/**
 * ReLU's backward mask in place: grad[i] = 0 where pre[i] <= 0 (pre
 * is the layer's pre-activation; a NaN keeps its gradient).
 * @throws std::invalid_argument when the shapes differ.
 */
void reluBackwardInPlace(DenseMatrix &grad, const DenseMatrix &pre);

/** In-place SGD update: w -= lr * grad. */
void sgdStep(std::vector<DenseMatrix> &weights,
             const Gradients &grads, float lr);

} // namespace igcn
