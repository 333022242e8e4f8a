// Kernel and dispatch probes for the traced run: the matmul shapes, the
// activation backward, Adam and the soft update at train_msd's 16-row
// gradient block x 64-wide layer shape, and one empty pool dispatch.
// GFLOP/s is computed from the shapes (2 * m * k * n per product).
#include <cmath>

#include "common/rng.h"
#include "harness.h"
#include "nn/activation.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"

namespace perfbench {
namespace {

using namespace miras;

constexpr std::size_t kRows = 16;   // one gradient block
constexpr std::size_t kWidth = 64;  // fast-preset hidden width
constexpr int kReps = 200;          // calls per timed sample
constexpr int kSamples = 25;

/// Median over kSamples of the mean time (us) of kReps calls of fn.
template <typename Fn>
double time_us(Fn&& fn) {
  std::vector<double> samples;
  for (int s = 0; s < kSamples; ++s) {
    const std::uint64_t t0 = now_ns();
    for (int r = 0; r < kReps; ++r) fn();
    samples.push_back(static_cast<double>(now_ns() - t0) / 1e3 / kReps);
  }
  return median(samples);
}

nn::Tensor random_tensor(std::size_t rows, std::size_t cols, Rng& rng) {
  nn::Tensor t(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) t(r, c) = rng.uniform(-1.0, 1.0);
  return t;
}

}  // namespace

Section run_probes(const Options& options) {
  Section s;
  Rng rng(options.seed * 31 + 7);
  const nn::Tensor x = random_tensor(kRows, kWidth, rng);
  const nn::Tensor w = random_tensor(kWidth, kWidth, rng);
  const nn::Tensor dy = random_tensor(kRows, kWidth, rng);
  nn::Tensor out, dw(kWidth, kWidth), dx;

  const double flops = 2.0 * kRows * kWidth * kWidth;
  const double fwd = time_us([&] { x.matmul_into(w, out); });
  const double dw_us = time_us([&] { x.transposed_matmul_into(dy, dw); });
  const double dx_us = time_us([&] { dy.matmul_transposed_into(w, dx); });

  nn::Tensor pre = random_tensor(kRows, kWidth, rng);
  nn::Tensor post(kRows, kWidth);
  for (std::size_t r = 0; r < kRows; ++r)
    for (std::size_t c = 0; c < kWidth; ++c)
      post(r, c) = std::max(0.0, pre(r, c));
  nn::Tensor grad_pre;
  const double act = time_us([&] {
    nn::activation_backward_into(nn::Activation::kRelu, pre, post, dy,
                                 grad_pre);
  });

  // The fast-preset actor shape: MSD's 4 task types in and out.
  nn::MlpSpec spec;
  spec.input_dim = 4;
  spec.hidden_dims = {kWidth, kWidth};
  spec.output_dim = 4;
  spec.output_activation = nn::Activation::kSoftmax;
  nn::Network net(spec, rng);
  const nn::Network target(spec, rng);
  for (nn::DenseLayer& layer : net.layers()) {
    layer.weight_grad().fill(1e-3);
    layer.bias_grad().fill(1e-3);
  }
  nn::AdamOptimizer adam(1e-4);
  const double adam_us = time_us([&] { adam.step_scaled(net.layers(), 0.5); });
  const double soft_us = time_us([&] { net.soft_update_from(target, 0.005); });

  double dispatch_us = 0.0;
  if (const auto pool = make_pool(options.threads)) {
    const std::size_t participants = pool->thread_count() + 1;
    dispatch_us = time_us([&] { pool->parallel_for(participants, [](std::size_t) {}); });
  }

  s.layers = {
      {"nn.fwd_us", fwd, "us"},
      {"nn.dw_us", dw_us, "us"},
      {"nn.dx_us", dx_us, "us"},
      {"nn.fwd_gflops", flops / fwd / 1e3, "GFLOP/s"},
      {"nn.dw_gflops", flops / dw_us / 1e3, "GFLOP/s"},
      {"nn.dx_gflops", flops / dx_us / 1e3, "GFLOP/s"},
      {"nn.act_bwd_us", act, "us"},
      {"nn.adam_us", adam_us, "us"},
      {"nn.soft_update_us", soft_us, "us"},
      {"common.dispatch_us", dispatch_us, "us"},
  };
  s.digest = fnv1a_hex(hexfloat(out(0, 0)) + hexfloat(dw(0, 0)) +
                       hexfloat(dx(0, 0)) + hexfloat(grad_pre(0, 0)));
  return s;
}

}  // namespace perfbench
