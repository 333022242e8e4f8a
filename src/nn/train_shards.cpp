#include "nn/train_shards.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/contracts.h"
#include "nn/optimizer.h"

namespace miras::nn {

void prepare_pass(const std::vector<DenseLayer>& layers, TrainPass& pass) {
  pass.pre.resize(layers.size());
  pass.post.resize(layers.size());
  pass.grads.resize(layers.size());
  pass.loss = 0.0;
}

namespace {

// dst = the sum of the block gradients passes[0..count).grads[layer].*field:
// per element ((0.0 + g_0) + g_1) + ... in ascending block order, the chain
// fill(0.0) followed by one += per block computed, so the explicit 0.0 +
// still turns a -0.0 sum into +0.0. One pass over dst: a chunk of it is
// summed on the stack, each block's add vectorised across elements, then
// stored.
void reduce_blocks(const std::vector<TrainPass>& passes, std::size_t count,
                   std::size_t layer, Tensor LayerGrad::*field, Tensor& dst) {
  constexpr std::size_t kChunk = 512;
  double acc[kChunk];
  for (std::size_t m = 0; m < count; ++m)
    MIRAS_EXPECTS((passes[m].grads[layer].*field).same_shape(dst));
  for (std::size_t i0 = 0; i0 < dst.size(); i0 += kChunk) {
    const std::size_t n = std::min(kChunk, dst.size() - i0);
    for (std::size_t i = 0; i < n; ++i) acc[i] = 0.0;
    for (std::size_t m = 0; m < count; ++m) {
      const double* src = (passes[m].grads[layer].*field).data() + i0;
      for (std::size_t i = 0; i < n; ++i) acc[i] += src[i];
    }
    std::memcpy(dst.data() + i0, acc, n * sizeof(double));
  }
}

}  // namespace

double sharded_adam_step(const std::vector<TrainPass>& passes,
                         std::size_t count, std::vector<DenseLayer>& layers,
                         double max_norm, AdamOptimizer& optimizer) {
  MIRAS_EXPECTS(count <= passes.size());
  MIRAS_EXPECTS(max_norm > 0.0);
  for (std::size_t m = 0; m < count; ++m)
    MIRAS_EXPECTS(passes[m].grads.size() == layers.size());
  // Pass 1: reduce + norm, layer by layer: per element the left-to-right
  // chain 0 + block_0 + block_1 + ..., and the norm in ascending layer
  // order, weights then bias.
  double sq_norm = 0.0;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    Tensor& wg = layers[l].weight_grad();
    Tensor& bg = layers[l].bias_grad();
    reduce_blocks(passes, count, l, &LayerGrad::weight, wg);
    reduce_blocks(passes, count, l, &LayerGrad::bias, bg);
    for (std::size_t i = 0; i < wg.size(); ++i) {
      const double g = wg.data()[i];
      sq_norm += g * g;
    }
    for (std::size_t i = 0; i < bg.size(); ++i) {
      const double g = bg.data()[i];
      sq_norm += g * g;
    }
  }
  const double norm = std::sqrt(sq_norm);
  // A NaN or infinite gradient would poison every weight for good (and the
  // next checkpoint would save them): refuse before Adam touches any.
  if (!std::isfinite(norm))
    throw std::runtime_error(
        "sharded_adam_step: gradient norm is not finite (" +
        std::to_string(norm) + "); no weight was updated");
  const double scale =
      norm > max_norm && norm > 0.0 ? max_norm / norm : 1.0;
  // Pass 2: scaled Adam update (the scale folds the clip into the step).
  optimizer.step_scaled(layers, scale);
  return norm;
}

void copy_rows(const Tensor& src, RowRange range, Tensor& dst) {
  MIRAS_EXPECTS(range.begin <= range.end && range.end <= src.rows());
  dst.resize(range.size(), src.cols());
  std::memcpy(dst.data(), src.data() + range.begin * src.cols(),
              range.size() * src.cols() * sizeof(double));
}

void paste_rows(const Tensor& src, RowRange range, Tensor& dst) {
  MIRAS_EXPECTS(range.begin <= range.end && range.end <= dst.rows());
  MIRAS_EXPECTS(src.rows() == range.size() && src.cols() == dst.cols());
  std::memcpy(dst.data() + range.begin * dst.cols(), src.data(),
              range.size() * dst.cols() * sizeof(double));
}

}  // namespace miras::nn
