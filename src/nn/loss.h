// Regression losses with analytic gradients. Values are averaged over both
// batch rows and output columns so learning rates transfer across batch
// sizes and output widths.
//
// Each loss writes the gradient into a caller-owned tensor and returns the
// scalar loss, so the training loops reuse one gradient buffer across
// steps. The training loops evaluate a loss one gradient block at a time;
// passing total_elements == prediction.size() gives the plain full-batch
// loss.
#pragma once

#include "nn/tensor.h"

namespace miras::nn {

/// Mean squared error, mean((pred - target)^2) / 2, over a *block* of a
/// larger batch: value and gradient carry the full batch's
/// 1/total_elements scale. The block gradients concatenate to the
/// full-batch gradient bit-identically (per-element arithmetic is
/// unchanged); the block values sum to the full-batch loss up to summation
/// order, so the training loops chain them in ascending block order to keep
/// the reported loss deterministic. `grad` (resized) must not alias the
/// inputs.
double mse_loss_partial_into(const Tensor& prediction, const Tensor& target,
                             std::size_t total_elements, Tensor& grad);

/// Huber loss with threshold `delta` (quadratic inside, linear outside),
/// robust to the occasional extreme WIP transition in the replay data,
/// over a block of a larger batch; see mse_loss_partial_into for the
/// scaling contract.
double huber_loss_partial_into(const Tensor& prediction, const Tensor& target,
                               double delta, std::size_t total_elements,
                               Tensor& grad);

}  // namespace miras::nn
