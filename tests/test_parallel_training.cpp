// Deterministic data-parallel training (train_shards.h, DESIGN.md §5d):
// the sharded gradient-block path must produce bit-identical weights for
// every thread count and shard schedule, and the sharded backward must
// agree with a naive ascending-index reference and with finite
// differences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "envmodel/dataset.h"
#include "envmodel/dynamics_model.h"
#include "envmodel/refiner.h"
#include "nn/critic_network.h"
#include "nn/grad_check.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/train_shards.h"
#include "rl/ddpg.h"

namespace miras {
namespace {

envmodel::TransitionDataset make_dataset(std::size_t state_dim,
                                         std::size_t action_dim,
                                         std::size_t count,
                                         std::uint64_t seed) {
  envmodel::TransitionDataset data(state_dim, action_dim);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    envmodel::Transition t;
    t.state.resize(state_dim);
    for (double& s : t.state) s = rng.uniform(0.0, 30.0);
    t.action.resize(action_dim);
    for (int& a : t.action) a = static_cast<int>(rng.uniform_int(0, 3));
    t.next_state.resize(state_dim);
    for (std::size_t j = 0; j < state_dim; ++j) {
      t.next_state[j] =
          0.7 * t.state[j] + 0.2 * t.state[(j + 1) % state_dim] -
          1.5 * t.action[j % action_dim] + rng.uniform(-0.3, 0.3);
      if (t.next_state[j] < 0.0) t.next_state[j] = 0.0;
    }
    t.reward = -t.state[0];
    data.add(std::move(t));
  }
  return data;
}

nn::Tensor random_tensor(std::size_t rows, std::size_t cols, Rng& rng) {
  nn::Tensor t(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) t(i, j) = rng.uniform(-1.0, 1.0);
  return t;
}

// Fitting the dynamics model must give the same weights and the same loss
// whether it runs inline, on 2 workers, or on 8 workers, and for every
// shard grouping — on both the MSD-shaped ({20, 20, 20}) and LIGO-shaped
// ({20}) paper configurations.
TEST(ParallelTraining, FitWeightsBitIdenticalAcrossThreadsAndShards) {
  struct Case {
    const char* name;
    std::size_t dim;
    std::vector<std::size_t> hidden;
  };
  const std::vector<Case> cases = {{"msd", 3, {20, 20, 20}},
                                   {"ligo", 9, {20}}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto data = make_dataset(c.dim, c.dim, 300, 41);
    envmodel::DynamicsModelConfig config;
    config.hidden_dims = c.hidden;
    config.epochs = 3;
    config.seed = 5;

    const auto run = [&](common::ThreadPool* pool, std::size_t shards) {
      envmodel::DynamicsModel model(c.dim, c.dim, config);
      model.enable_parallel_training(pool, shards);
      const double loss = model.fit(data);
      return std::make_pair(model.network().get_parameters(), loss);
    };

    const auto [base_params, base_loss] = run(nullptr, 0);
    common::ThreadPool pool8(8);
    common::ThreadPool pool2(2);
    for (const std::size_t shards : {std::size_t{0}, std::size_t{1},
                                     std::size_t{4}, std::size_t{16}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      const auto [params8, loss8] = run(&pool8, shards);
      EXPECT_EQ(params8, base_params);
      EXPECT_EQ(loss8, base_loss);
      const auto [params2, loss2] = run(&pool2, shards);
      EXPECT_EQ(params2, base_params);
      EXPECT_EQ(loss2, base_loss);
    }
  }
}

// The full DDPG update — target stage, twin-critic TD steps, delayed actor
// ascent, soft updates — must leave every network bit-identical for every
// thread count and shard schedule.
TEST(ParallelTraining, DdpgUpdateBitIdenticalAcrossThreadsAndShards) {
  rl::DdpgConfig config;
  config.actor_hidden = {16, 16};
  config.critic_hidden = {16, 16};
  config.batch_size = 48;  // 3 gradient blocks per minibatch
  config.warmup = 48;
  config.seed = 3;

  const auto run = [&](common::ThreadPool* pool, std::size_t shards) {
    rl::DdpgAgent agent(4, 4, 12, config);
    agent.enable_parallel_training(pool, shards);
    Rng rng(7);
    std::vector<double> s(4), s_next(4);
    for (std::size_t i = 0; i < 96; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        s[j] = rng.uniform(0.0, 30.0);
        s_next[j] = rng.uniform(0.0, 30.0);
      }
      const auto action = agent.act(s, /*explore=*/true);
      agent.observe(s, action, rng.uniform(-4.0, 0.0), s_next);
    }
    const double loss = agent.update(12);
    return std::make_tuple(agent.actor().get_parameters(),
                           agent.critic().get_parameters(), loss);
  };

  const auto base = run(nullptr, 0);
  common::ThreadPool pool8(8);
  for (const std::size_t shards : {std::size_t{0}, std::size_t{1},
                                   std::size_t{4}, std::size_t{16}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(run(&pool8, shards), base);
  }
  common::ThreadPool pool2(2);
  EXPECT_EQ(run(&pool2, 0), base);
}

// --- Naive reference: one loop per product, each output element one chain
// over the ascending reduction index starting from +0.0 (the kernel
// contract, nn/kernels.h), with the library's activations. It shares no
// code with the kernels, so it is an independent oracle for them.

// pre = x·W + b, post = act(pre).
void naive_forward(const nn::DenseLayer& layer, const nn::Tensor& x,
                   nn::Tensor& pre, nn::Tensor& post) {
  pre = nn::Tensor(x.rows(), layer.out_dim());
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t j = 0; j < layer.out_dim(); ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < layer.in_dim(); ++p)
        acc = acc + x(r, p) * layer.weights()(p, j);
      pre(r, j) = acc + layer.bias()(0, j);
    }
  nn::activate_into(layer.activation(), pre, post);
}

// Given the layer input x and dL/d(pre) g: dW = xᵀ·g, db = the column sums
// of g, dX = g·Wᵀ.
struct NaiveGrads {
  nn::Tensor weight, bias, input;
};

NaiveGrads naive_backward(const nn::DenseLayer& layer, const nn::Tensor& x,
                          const nn::Tensor& g) {
  NaiveGrads out{nn::Tensor(layer.in_dim(), layer.out_dim()),
                 nn::Tensor(1, layer.out_dim()),
                 nn::Tensor(x.rows(), layer.in_dim())};
  for (std::size_t i = 0; i < layer.in_dim(); ++i)
    for (std::size_t j = 0; j < layer.out_dim(); ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < x.rows(); ++r) acc = acc + x(r, i) * g(r, j);
      out.weight(i, j) = acc;
    }
  for (std::size_t j = 0; j < layer.out_dim(); ++j) {
    double acc = 0.0;
    for (std::size_t r = 0; r < x.rows(); ++r) acc = acc + g(r, j);
    out.bias(0, j) = acc;
  }
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t i = 0; i < layer.in_dim(); ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < layer.out_dim(); ++j)
        acc = acc + g(r, j) * layer.weights()(i, j);
      out.input(r, i) = acc;
    }
  return out;
}

// Columns [begin, end) of t.
nn::Tensor columns(const nn::Tensor& t, std::size_t begin, std::size_t end) {
  nn::Tensor out(t.rows(), end - begin);
  for (std::size_t r = 0; r < t.rows(); ++r)
    for (std::size_t c = begin; c < end; ++c) out(r, c - begin) = t(r, c);
  return out;
}

// Reference gradients of a whole batch: per layer dW and db, plus the input
// gradient the sharded path produces (dL/dx for a network, dQ/da for a
// critic).
struct ReferenceGrads {
  std::vector<nn::Tensor> weight, bias;
  nn::Tensor input;
};

// Backpropagates dL/d(output of layers[top]) down to the input of
// layers[bottom], given every layer's input and pre/post caches; fills
// ref.weight/bias and returns dL/d(input of layers[bottom]).
nn::Tensor naive_backprop(const std::vector<nn::DenseLayer>& layers,
                          std::size_t bottom,
                          const std::vector<nn::Tensor>& inputs,
                          const std::vector<nn::Tensor>& pre,
                          const std::vector<nn::Tensor>& post,
                          const nn::Tensor& grad_output,
                          ReferenceGrads& ref) {
  const std::size_t top = layers.size() - 1;
  nn::Tensor g;
  nn::activation_backward_into(layers[top].activation(), pre[top], post[top],
                               grad_output, g);
  for (std::size_t l = top;; --l) {
    NaiveGrads grads = naive_backward(layers[l], inputs[l], g);
    ref.weight[l] = std::move(grads.weight);
    ref.bias[l] = std::move(grads.bias);
    if (l == bottom) return std::move(grads.input);
    nn::activation_backward_into(layers[l - 1].activation(), pre[l - 1],
                                 post[l - 1], grads.input, g);
  }
}

ReferenceGrads naive_network_grads(const nn::Network& net, const nn::Tensor& x,
                                   const nn::Tensor& target) {
  const std::size_t n = net.num_layers();
  std::vector<nn::Tensor> inputs(n), pre(n), post(n);
  for (std::size_t l = 0; l < n; ++l) {
    inputs[l] = l == 0 ? x : post[l - 1];
    naive_forward(net.layer(l), inputs[l], pre[l], post[l]);
  }
  nn::Tensor loss_grad;
  nn::mse_loss_partial_into(post.back(), target, post.back().size(),
                            loss_grad);
  ReferenceGrads ref{std::vector<nn::Tensor>(n), std::vector<nn::Tensor>(n),
                     nn::Tensor()};
  ref.input =
      naive_backprop(net.layers(), 0, inputs, pre, post, loss_grad, ref);
  return ref;
}

ReferenceGrads naive_critic_grads(const nn::CriticNetwork& critic,
                                  const nn::Tensor& states,
                                  const nn::Tensor& actions,
                                  const nn::Tensor& target) {
  const std::vector<nn::DenseLayer>& layers = critic.layers();
  const std::size_t n = layers.size();
  const std::size_t h1 = layers[0].out_dim();
  std::vector<nn::Tensor> inputs(n), pre(n), post(n);
  inputs[0] = states;
  naive_forward(layers[0], states, pre[0], post[0]);
  inputs[1] = nn::Tensor(states.rows(), h1 + critic.action_dim());
  for (std::size_t r = 0; r < states.rows(); ++r) {
    for (std::size_t c = 0; c < h1; ++c) inputs[1](r, c) = post[0](r, c);
    for (std::size_t c = 0; c < critic.action_dim(); ++c)
      inputs[1](r, h1 + c) = actions(r, c);
  }
  for (std::size_t l = 1; l < n; ++l) {
    if (l > 1) inputs[l] = post[l - 1];
    naive_forward(layers[l], inputs[l], pre[l], post[l]);
  }
  nn::Tensor loss_grad;
  nn::mse_loss_partial_into(post.back(), target, post.back().size(),
                            loss_grad);
  ReferenceGrads ref{std::vector<nn::Tensor>(n), std::vector<nn::Tensor>(n),
                     nn::Tensor()};
  // Down to the joint layer's [h1 || a] input, then split its columns.
  const nn::Tensor grad_concat =
      naive_backprop(layers, 1, inputs, pre, post, loss_grad, ref);
  ref.input = columns(grad_concat, h1, h1 + critic.action_dim());
  nn::Tensor grad_h1;
  nn::activation_backward_into(layers[0].activation(), pre[0], post[0],
                               columns(grad_concat, 0, h1), grad_h1);
  NaiveGrads grads0 = naive_backward(layers[0], states, grad_h1);
  ref.weight[0] = std::move(grads0.weight);
  ref.bias[0] = std::move(grads0.bias);
  return ref;
}

// The reduced gradients of the blocks in passes[0..blocks), read back from
// the gradient buffers of a copy that took the sharded update.
template <typename Net>
std::pair<std::vector<nn::Tensor>, std::vector<nn::Tensor>> reduced_grads(
    const Net& net, const std::vector<nn::TrainPass>& passes,
    std::size_t blocks) {
  Net stepped = net;
  nn::AdamOptimizer adam(1e-3);
  stepped.sharded_update(passes, blocks,
                         std::numeric_limits<double>::infinity(), adam);
  std::vector<nn::Tensor> weight, bias;
  for (const nn::DenseLayer& layer : stepped.layers()) {
    weight.push_back(layer.weight_grad());
    bias.push_back(layer.bias_grad());
  }
  return {std::move(weight), std::move(bias)};
}

// Exact for a single block, which runs the reference's chain; a
// multi-block batch regroups the same row contributions into
// 0 + block_0 + block_1 + ..., so it agrees to rounding.
void expect_matches_reference(const nn::Tensor& got, const nn::Tensor& want,
                              bool exact) {
  ASSERT_TRUE(got.same_shape(want));
  for (std::size_t i = 0; i < got.rows(); ++i)
    for (std::size_t j = 0; j < got.cols(); ++j) {
      if (exact) {
        EXPECT_EQ(got(i, j), want(i, j));
      } else {
        EXPECT_NEAR(got(i, j), want(i, j),
                    1e-12 * std::max(1.0, std::abs(want(i, j))));
      }
    }
}

// A single-block batch (B = kRowsPerBlock) must reproduce the naive
// reference bit for bit; a multi-block batch agrees to rounding in the
// parameter gradients. The assembled dL/dx is per-row and therefore always
// exact — and it must also agree with finite differences.
TEST(ParallelTraining, ShardedNetworkBackwardMatchesSerial) {
  nn::MlpSpec spec;
  spec.input_dim = 5;
  spec.hidden_dims = {8, 7};
  spec.output_dim = 4;
  spec.hidden_activation = nn::Activation::kTanh;
  spec.output_activation = nn::Activation::kIdentity;
  Rng rng(11);
  nn::Network net(spec, rng);

  for (const std::size_t batch : {nn::kRowsPerBlock, std::size_t{40}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const nn::Tensor x = random_tensor(batch, spec.input_dim, rng);
    const nn::Tensor target = random_tensor(batch, spec.output_dim, rng);
    const ReferenceGrads ref = naive_network_grads(net, x, target);

    const std::size_t blocks = nn::num_row_blocks(batch);
    std::vector<nn::TrainPass> passes(blocks);
    nn::Tensor grad_input(batch, spec.input_dim);
    for (std::size_t m = 0; m < blocks; ++m) {
      const nn::RowRange rows = nn::row_block(batch, m);
      nn::TrainPass& pass = passes[m];
      nn::prepare_pass(net.layers(), pass);
      nn::copy_rows(x, rows, pass.in);
      nn::copy_rows(target, rows, pass.target);
      const nn::Tensor& prediction = net.forward_shard(pass.in, pass);
      pass.loss = nn::mse_loss_partial_into(prediction, pass.target,
                                            batch * spec.output_dim,
                                            pass.loss_grad);
      nn::paste_rows(net.backward_shard(pass.in, pass.loss_grad, pass), rows,
                     grad_input);
    }
    const auto [weight, bias] = reduced_grads(net, passes, blocks);

    const bool exact = blocks == 1;
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      SCOPED_TRACE("layer=" + std::to_string(l));
      expect_matches_reference(weight[l], ref.weight[l], exact);
      expect_matches_reference(bias[l], ref.bias[l], exact);
    }
    // dL/dx never crosses block boundaries: exact either way.
    expect_matches_reference(grad_input, ref.input, true);

    const auto f = [&](const nn::Tensor& xx) {
      const nn::Tensor y = net.predict(xx);
      nn::Tensor g;
      return nn::mse_loss_partial_into(y, target, y.size(), g);
    };
    // The mean-loss scale (1 / (B * out_dim)) shrinks the true gradients,
    // so finite-difference roundoff needs the looser relative bound.
    EXPECT_LT(nn::max_gradient_error(f, x, grad_input, 1e-5), 1e-4);
  }
}

// Same contract for the critic: the sharded backward must reproduce the
// reference parameter gradients and dQ/da (the policy-gradient signal).
TEST(ParallelTraining, ShardedCriticBackwardMatchesSerial) {
  nn::CriticSpec spec;
  spec.state_dim = 5;
  spec.action_dim = 3;
  spec.hidden_dims = {8, 7, 6};
  Rng rng(13);
  nn::CriticNetwork critic(spec, rng);

  for (const std::size_t batch : {nn::kRowsPerBlock, std::size_t{40}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const nn::Tensor states = random_tensor(batch, spec.state_dim, rng);
    const nn::Tensor actions = random_tensor(batch, spec.action_dim, rng);
    const nn::Tensor target = random_tensor(batch, 1, rng);
    const ReferenceGrads ref =
        naive_critic_grads(critic, states, actions, target);

    const std::size_t blocks = nn::num_row_blocks(batch);
    std::vector<nn::TrainPass> passes(blocks);
    nn::Tensor grad_actions(batch, spec.action_dim);
    for (std::size_t m = 0; m < blocks; ++m) {
      const nn::RowRange rows = nn::row_block(batch, m);
      nn::TrainPass& pass = passes[m];
      nn::prepare_pass(critic.layers(), pass);
      nn::copy_rows(states, rows, pass.in);
      nn::copy_rows(actions, rows, pass.actions);
      nn::copy_rows(target, rows, pass.target);
      const nn::Tensor& q = critic.forward_shard(pass.in, pass.actions, pass);
      pass.loss =
          nn::mse_loss_partial_into(q, pass.target, batch, pass.loss_grad);
      critic.backward_shard(pass.in, pass.actions, pass.loss_grad, pass);
      nn::paste_rows(pass.grad_actions, rows, grad_actions);
    }
    const auto [weight, bias] = reduced_grads(critic, passes, blocks);

    const bool exact = blocks == 1;
    for (std::size_t l = 0; l < critic.layers().size(); ++l) {
      SCOPED_TRACE("layer=" + std::to_string(l));
      expect_matches_reference(weight[l], ref.weight[l], exact);
      expect_matches_reference(bias[l], ref.bias[l], exact);
    }
    // dQ/da is per-row: exact at every batch size, and it must agree with
    // finite differences through the inference path.
    expect_matches_reference(grad_actions, ref.input, true);

    const auto f = [&](const nn::Tensor& a) {
      const nn::Tensor q = critic.predict(states, a);
      nn::Tensor g;
      return nn::mse_loss_partial_into(q, target, q.size(), g);
    };
    EXPECT_LT(nn::max_gradient_error(f, actions, grad_actions), 1e-5);
  }
}

// The refiner's threshold fit is dimension-parallel; thresholds must not
// depend on the pool.
TEST(ParallelTraining, RefinerThresholdsBitIdenticalWithPool) {
  const auto data = make_dataset(6, 6, 400, 29);
  envmodel::DynamicsModelConfig config;
  config.epochs = 2;
  config.seed = 5;

  const auto run = [&](common::ThreadPool* pool) {
    envmodel::DynamicsModel model(6, 6, config);
    model.enable_parallel_training(pool);
    model.fit(data);
    envmodel::ModelRefiner refiner(&model, envmodel::RefinerConfig{});
    refiner.enable_parallel(pool);
    refiner.fit_thresholds(data);
    return std::make_pair(refiner.tau(), refiner.omega());
  };

  const auto base = run(nullptr);
  common::ThreadPool pool8(8);
  EXPECT_EQ(run(&pool8), base);
}

}  // namespace
}  // namespace miras
