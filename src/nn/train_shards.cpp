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

// Blocks summed per walk over a gradient tensor; the block pointers live
// on the stack.
constexpr std::size_t kGroup = 8;

// One walk over n elements for G consecutive blocks: per element
// s = (first ? 0.0 : out[i]) + src[0][i] + ... + src[G-1][i], then
// out[i] = s and, on the last group, sq_norm += s * s. Element-major, so
// each element's block chain is short and independent of the others' and
// runs ahead of the norm chain, whose add latency sets the pace.
template <std::size_t G>
double sum_group(const double* const* src, double* out, std::size_t n,
                 bool first, bool last, double sq_norm) {
  for (std::size_t i = 0; i < n; ++i) {
    double s = first ? 0.0 : out[i];
    for (std::size_t k = 0; k < G; ++k) s += src[k][i];
    if (last) sq_norm += s * s;
    out[i] = s;
  }
  return sq_norm;
}

// dst = the sum of the block gradients passes[0..count).grads[layer].*field:
// per element ((0.0 + g_0) + g_1) + ... in ascending block order, the chain
// fill(0.0) followed by one += per block computed, so the explicit 0.0 +
// still turns a -0.0 sum into +0.0. Returns sq_norm + dst[0]^2 + dst[1]^2
// + ..., one serial chain in ascending element order, each term added as
// its element is stored. Up to kGroup blocks this is one walk over dst;
// more blocks walk it once per kGroup, the last walk adding the norm.
double reduce_blocks(const std::vector<TrainPass>& passes, std::size_t count,
                     std::size_t layer, Tensor LayerGrad::*field, Tensor& dst,
                     double sq_norm) {
  const double* src[kGroup];
  std::size_t g0 = 0;
  do {
    const std::size_t g = std::min(kGroup, count - g0);
    for (std::size_t k = 0; k < g; ++k) {
      const Tensor& block = passes[g0 + k].grads[layer].*field;
      MIRAS_EXPECTS(block.same_shape(dst));
      src[k] = block.data();
    }
    const bool first = g0 == 0;
    const bool last = g0 + g == count;
    double* out = dst.data();
    const std::size_t n = dst.size();
    switch (g) {
      case 0: sq_norm = sum_group<0>(src, out, n, first, last, sq_norm); break;
      case 1: sq_norm = sum_group<1>(src, out, n, first, last, sq_norm); break;
      case 2: sq_norm = sum_group<2>(src, out, n, first, last, sq_norm); break;
      case 3: sq_norm = sum_group<3>(src, out, n, first, last, sq_norm); break;
      case 4: sq_norm = sum_group<4>(src, out, n, first, last, sq_norm); break;
      case 5: sq_norm = sum_group<5>(src, out, n, first, last, sq_norm); break;
      case 6: sq_norm = sum_group<6>(src, out, n, first, last, sq_norm); break;
      case 7: sq_norm = sum_group<7>(src, out, n, first, last, sq_norm); break;
      default: sq_norm = sum_group<8>(src, out, n, first, last, sq_norm); break;
    }
    g0 += g;
  } while (g0 < count);
  return sq_norm;
}

}  // namespace

double sharded_adam_step(const std::vector<TrainPass>& passes,
                         std::size_t count, std::vector<DenseLayer>& layers,
                         double max_norm, AdamOptimizer& optimizer,
                         const StepFold& fold, kern::Isa isa) {
  MIRAS_EXPECTS(count <= passes.size());
  MIRAS_EXPECTS(max_norm > 0.0);
  for (std::size_t m = 0; m < count; ++m)
    MIRAS_EXPECTS(passes[m].grads.size() == layers.size());
  // Walk 1: reduce + norm, layer by layer: per element the left-to-right
  // chain 0 + block_0 + block_1 + ..., and the norm in ascending layer
  // order, weights then bias.
  double sq_norm = 0.0;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    sq_norm = reduce_blocks(passes, count, l, &LayerGrad::weight,
                            layers[l].weight_grad(), sq_norm);
    sq_norm = reduce_blocks(passes, count, l, &LayerGrad::bias,
                            layers[l].bias_grad(), sq_norm);
  }
  const double norm = std::sqrt(sq_norm);
  // A NaN or infinite gradient would poison every weight for good (and the
  // next checkpoint would save them): refuse before Adam touches any. The
  // caller adds which network and which update (NonFiniteGradient).
  if (!std::isfinite(norm))
    throw NonFiniteGradient("gradient norm is not finite (" +
                            std::to_string(norm) +
                            "); no weight was updated");
  const double scale =
      norm > max_norm && norm > 0.0 ? max_norm / norm : 1.0;
  // Walk 2: Adam with the clip folded in as a gradient scale, then the
  // decay and target update of each parameter (StepFold).
  optimizer.step_scaled(layers, scale, fold, isa);
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
