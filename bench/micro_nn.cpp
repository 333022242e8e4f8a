// Microbenchmarks of the neural-network substrate (google-benchmark):
// matmul, the forward/dW/dX products of one gradient block (dX also through
// a ReLU mask and at the DDPG update's degenerate shapes), the batched vs
// per-sample inference paths at the paper's network sizes, the Adam step,
// and one full DDPG update.
// Every benchmark reports a bytes_per_op counter (heap bytes requested per
// timed iteration) — the workspace-based hot paths are expected to sit at
// zero after warmup. Pass `--json <path>` to dump {op, ns_per_op,
// bytes_per_op, iterations} records (the BENCH_nn.json CI artifact).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_json.h"
#include "common/rng.h"
#include "nn/kernels.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/train_shards.h"
#include "nn/workspace.h"
#include "rl/ddpg.h"

namespace miras {
namespace {

void BM_TensorMatmulInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  nn::Tensor a(n, n), b(n, n), out(n, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.uniform();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.uniform();
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    a.matmul_into(b, out);
    benchmark::DoNotOptimize(out.data());
  }
  bench::record_bytes_per_op(state, alloc0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_TensorMatmulInto)->Arg(64)->Arg(128)->Arg(256);

// The three products of one 16-row gradient block (nn::kRowsPerBlock) at
// the fast (64) and paper (256) layer widths, through the Tensor wrappers
// over the kern:: seam: forward x·W, dW = xᵀ·dY, dX = dY·Wᵀ. Outputs are
// caller-owned, so all three must stay at bytes_per_op == 0.
template <typename Product>
void run_block_product(benchmark::State& state, Product&& product) {
  const auto width = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = nn::kRowsPerBlock;
  Rng rng(6);
  nn::Tensor x(rows, width), weights(width, width), dy(rows, width), out;
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = std::max(0.0, rng.normal());  // ReLU-sparse activations
  for (std::size_t i = 0; i < weights.size(); ++i)
    weights.data()[i] = rng.normal();
  for (std::size_t i = 0; i < dy.size(); ++i) dy.data()[i] = rng.normal();
  product(x, weights, dy, out);  // warmup sizes `out`
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    product(x, weights, dy, out);
    benchmark::DoNotOptimize(out.data());
  }
  bench::record_bytes_per_op(state, alloc0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * rows * width * width));
}

void BM_BlockForward(benchmark::State& state) {
  run_block_product(state, [](const nn::Tensor& x, const nn::Tensor& w,
                              const nn::Tensor&, nn::Tensor& out) {
    x.matmul_into(w, out);
  });
}
BENCHMARK(BM_BlockForward)->Arg(64)->Arg(256);

void BM_BlockDw(benchmark::State& state) {
  run_block_product(state, [](const nn::Tensor& x, const nn::Tensor&,
                              const nn::Tensor& dy, nn::Tensor& out) {
    x.transposed_matmul_into(dy, out);
  });
}
BENCHMARK(BM_BlockDw)->Arg(64)->Arg(256);

void BM_BlockDx(benchmark::State& state) {
  run_block_product(state, [](const nn::Tensor&, const nn::Tensor& w,
                              const nn::Tensor& dy, nn::Tensor& out) {
    dy.matmul_transposed_into(w, out);
  });
}
BENCHMARK(BM_BlockDx)->Arg(64)->Arg(256);

// dX through the ReLU of the layer below (the mask is the ReLU-sparse x
// standing in for that layer's pre-activation): the form every hidden
// layer's backward runs.
void BM_BlockDxRelu(benchmark::State& state) {
  run_block_product(state, [](const nn::Tensor& x, const nn::Tensor& w,
                              const nn::Tensor& dy, nn::Tensor& out) {
    out.resize(dy.rows(), w.rows());
    nn::kern::gemm_nt(dy.data(), w.data(), out.data(), dy.rows(), dy.cols(),
                      w.rows(), x.data());
  });
}
BENCHMARK(BM_BlockDxRelu)->Arg(64)->Arg(256);

// The DDPG update's two degenerate dX shapes at the fast preset's width
// (64), one 16-row block each, m x k x n: the critic head (16 x 1 x 64,
// one output column, through the ReLU below) and the action columns of the
// critic's joint layer that carry dQ/da to the actor (16 x 64 x 4).
void run_dx_shape(benchmark::State& state, std::size_t k, std::size_t n,
                  bool relu_mask) {
  const std::size_t m = nn::kRowsPerBlock;
  Rng rng(7);
  nn::Tensor dy(m, k), w(n, k), mask(m, n), out(m, n);
  for (std::size_t i = 0; i < dy.size(); ++i) dy.data()[i] = rng.normal();
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = rng.normal();
  for (std::size_t i = 0; i < mask.size(); ++i)
    mask.data()[i] = std::max(0.0, rng.normal());
  const double* mask_data = relu_mask ? mask.data() : nullptr;
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    nn::kern::gemm_nt(dy.data(), w.data(), out.data(), m, k, n, mask_data);
    benchmark::DoNotOptimize(out.data());
  }
  bench::record_bytes_per_op(state, alloc0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * k * n));
}

void BM_DxCriticHead(benchmark::State& state) {
  run_dx_shape(state, 1, 64, true);
}
BENCHMARK(BM_DxCriticHead);

void BM_DxActionColumns(benchmark::State& state) {
  run_dx_shape(state, 64, 4, false);
}
BENCHMARK(BM_DxActionColumns);

nn::Network make_mlp(std::size_t width, std::size_t in, std::size_t out,
                     Rng& rng) {
  nn::MlpSpec spec;
  spec.input_dim = in;
  spec.hidden_dims = {width, width, width};
  spec.output_dim = out;
  return nn::Network(spec, rng);
}

// Allocating predict(): fresh tensors every call (the thread-safe
// evaluation-grid path). Baseline for the workspace variants below.
void BM_ActorForward(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Network net = make_mlp(width, 4, 4, rng);
  nn::Tensor batch(64, 4, 0.5);
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) benchmark::DoNotOptimize(net.predict(batch));
  bench::record_bytes_per_op(state, alloc0);
}
BENCHMARK(BM_ActorForward)->Arg(64)->Arg(256);  // 256 = paper's MSD actor

// Workspace predict_batch(): same numbers, zero allocations after warmup.
void BM_ActorForwardBatched(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Network net = make_mlp(width, 4, 4, rng);
  nn::Tensor batch(64, 4, 0.5);
  nn::Workspace ws;
  nn::Tensor out;
  net.predict_batch(batch, ws, out);  // warmup sizes the workspace
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    net.predict_batch(batch, ws, out);
    benchmark::DoNotOptimize(out.data());
  }
  bench::record_bytes_per_op(state, alloc0);
}
BENCHMARK(BM_ActorForwardBatched)->Arg(64)->Arg(256);

// The same 64 samples pushed through one at a time (64 GEMVs per layer
// instead of one GEMM) — what the lockstep rollout batching removes.
void BM_ActorForwardPerSample(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Network net = make_mlp(width, 4, 4, rng);
  const std::vector<double> x(4, 0.5);
  std::vector<double> y;
  nn::Workspace ws;
  net.predict_one(x, ws, y);  // warmup sizes the workspace
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      net.predict_one(x, ws, y);
      benchmark::DoNotOptimize(y.data());
    }
  }
  bench::record_bytes_per_op(state, alloc0);
}
BENCHMARK(BM_ActorForwardPerSample)->Arg(64)->Arg(256);

// One Adam step over the paper's 3x256 actor from filled gradients, the
// form sharded_adam_step drives (scale 1.0: no clip).
void BM_AdamStep(benchmark::State& state) {
  Rng rng(4);
  nn::Network net = make_mlp(256, 4, 4, rng);
  for (nn::DenseLayer& layer : net.layers()) {
    layer.weight_grad().fill(1e-3);
    layer.bias_grad().fill(1e-3);
  }
  nn::AdamOptimizer adam(1e-3);
  adam.step_scaled(net.layers(), 1.0);  // warmup allocates the moments
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) adam.step_scaled(net.layers(), 1.0);
  bench::record_bytes_per_op(state, alloc0);
}
BENCHMARK(BM_AdamStep);

void BM_DdpgUpdate(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  rl::DdpgConfig config;
  config.actor_hidden = {width, width, width};
  config.critic_hidden = {width, width, width};
  config.batch_size = 64;
  config.warmup = 64;
  rl::DdpgAgent agent(4, 4, 14, config);
  Rng rng(5);
  for (int i = 0; i < 256; ++i) {
    std::vector<double> s{rng.uniform(0, 50), rng.uniform(0, 50),
                          rng.uniform(0, 50), rng.uniform(0, 50)};
    agent.observe(s, {0.25, 0.25, 0.25, 0.25}, rng.uniform(-5, 0), s);
  }
  // Warm-up sizes the agent's scratch tensors. Two updates, so the delayed
  // actor step (policy_delay = 2) sizes its passes outside the timed loop.
  agent.update(2);
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) benchmark::DoNotOptimize(agent.update(1));
  bench::record_bytes_per_op(state, alloc0);
}
BENCHMARK(BM_DdpgUpdate)->Arg(64)->Arg(256);

}  // namespace
}  // namespace miras

int main(int argc, char** argv) {
  return miras::bench::run_benchmarks(argc, argv);
}
