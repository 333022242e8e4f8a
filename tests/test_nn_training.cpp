// End-to-end supervised learning checks: the stack (tensor + layers +
// losses + the sharded training path + Adam) must actually learn
// nontrivial functions.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/train_shards.h"

namespace miras::nn {
namespace {

// One full-batch training step through the shard path, unclipped: each
// kRowsPerBlock-row block runs forward_shard / backward_shard with the
// whole batch's MSE scale, then sharded_update reduces the blocks and
// applies one Adam step. Returns the loss before the step.
double train_step(Network& net, const Tensor& x, const Tensor& y,
                  std::vector<TrainPass>& passes, AdamOptimizer& opt) {
  const std::size_t blocks = num_row_blocks(x.rows());
  if (passes.size() < blocks) passes.resize(blocks);
  double loss = 0.0;
  for (std::size_t m = 0; m < blocks; ++m) {
    TrainPass& pass = passes[m];
    const RowRange rows = row_block(x.rows(), m);
    prepare_pass(net.layers(), pass);
    copy_rows(x, rows, pass.in);
    copy_rows(y, rows, pass.target);
    loss += mse_loss_partial_into(net.forward_shard(pass.in, pass),
                                  pass.target, y.size(), pass.loss_grad);
    (void)net.backward_shard(pass.in, pass.loss_grad, pass);
  }
  net.sharded_update(passes, blocks, std::numeric_limits<double>::infinity(),
                     opt);
  return loss;
}

double train_regression(Network& net, const Tensor& x, const Tensor& y,
                        std::size_t epochs, double lr) {
  AdamOptimizer opt(lr);
  std::vector<TrainPass> passes;
  double loss_value = 0.0;
  for (std::size_t e = 0; e < epochs; ++e)
    loss_value = train_step(net, x, y, passes, opt);
  return loss_value;
}

TEST(Training, LearnsXor) {
  Rng rng(1);
  MlpSpec spec;
  spec.input_dim = 2;
  spec.hidden_dims = {16};
  spec.output_dim = 1;
  spec.hidden_activation = Activation::kTanh;
  Network net(spec, rng);

  const Tensor x =
      Tensor::from_rows({{0.0, 0.0}, {0.0, 1.0}, {1.0, 0.0}, {1.0, 1.0}});
  const Tensor y = Tensor::from_rows({{0.0}, {1.0}, {1.0}, {0.0}});
  const double final_loss = train_regression(net, x, y, 2000, 0.01);
  EXPECT_LT(final_loss, 1e-3);

  EXPECT_LT(net.predict_one({0.0, 0.0})[0], 0.2);
  EXPECT_GT(net.predict_one({0.0, 1.0})[0], 0.8);
  EXPECT_GT(net.predict_one({1.0, 0.0})[0], 0.8);
  EXPECT_LT(net.predict_one({1.0, 1.0})[0], 0.2);
}

TEST(Training, LearnsSineRegression) {
  Rng rng(2);
  MlpSpec spec;
  spec.input_dim = 1;
  spec.hidden_dims = {32, 32};
  spec.output_dim = 1;
  spec.hidden_activation = Activation::kRelu;
  Network net(spec, rng);

  const std::size_t n = 128;
  Tensor x(n, 1), y(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = -3.0 + 6.0 * static_cast<double>(i) / (n - 1);
    x(i, 0) = t;
    y(i, 0) = std::sin(t);
  }
  const double final_loss = train_regression(net, x, y, 1500, 0.005);
  EXPECT_LT(final_loss, 5e-3);
}

TEST(Training, LearnsLinearMapExactly) {
  Rng rng(3);
  MlpSpec spec;
  spec.input_dim = 3;
  spec.hidden_dims = {8};
  spec.output_dim = 2;
  spec.hidden_activation = Activation::kTanh;
  Network net(spec, rng);

  // y = A x + b for a fixed A, b.
  Rng data_rng(4);
  const std::size_t n = 64;
  Tensor x(n, 3), y(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = data_rng.uniform(-1, 1), b = data_rng.uniform(-1, 1),
                 c = data_rng.uniform(-1, 1);
    x.set_row(i, {a, b, c});
    y.set_row(i, {0.5 * a - b + 0.2 * c + 0.1, a + 0.3 * b - c});
  }
  const double final_loss = train_regression(net, x, y, 2500, 0.01);
  EXPECT_LT(final_loss, 1e-3);
}

TEST(Training, SoftmaxHeadLearnsArgmaxPreference) {
  // Teach the actor-style network (softmax output) to put mass on the
  // index indicated by the input one-hot — a proxy for learning "give the
  // loaded queue the consumers".
  Rng rng(5);
  MlpSpec spec;
  spec.input_dim = 3;
  spec.hidden_dims = {16};
  spec.output_dim = 3;
  spec.hidden_activation = Activation::kRelu;
  spec.output_activation = Activation::kSoftmax;
  Network net(spec, rng);

  Tensor x(3, 3), y(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    x(i, i) = 1.0;
    for (std::size_t j = 0; j < 3; ++j) y(i, j) = (i == j) ? 0.9 : 0.05;
  }
  const double final_loss = train_regression(net, x, y, 3000, 0.01);
  EXPECT_LT(final_loss, 1e-3);
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<double> in(3, 0.0);
    in[i] = 1.0;
    const auto out = net.predict_one(in);
    for (std::size_t j = 0; j < 3; ++j) {
      if (j != i) {
        EXPECT_GT(out[i], out[j]);
      }
    }
  }
}

TEST(Training, BatchCompositionInvariance) {
  // One gradient step on a batch must equal the same step computed on the
  // batch given in a different row order.
  Rng rng(6);
  MlpSpec spec;
  spec.input_dim = 2;
  spec.hidden_dims = {4};
  spec.output_dim = 1;
  Network net_a(spec, rng);
  Network net_b = net_a;

  const Tensor x1 = Tensor::from_rows({{1.0, 2.0}, {-1.0, 0.5}});
  const Tensor y1 = Tensor::from_rows({{1.0}, {0.0}});
  const Tensor x2 = Tensor::from_rows({{-1.0, 0.5}, {1.0, 2.0}});
  const Tensor y2 = Tensor::from_rows({{0.0}, {1.0}});

  // A large epsilon keeps the first Adam step proportional to the gradient
  // instead of to its sign.
  AdamOptimizer opt_a(0.1, 0.9, 0.999, 1.0), opt_b(0.1, 0.9, 0.999, 1.0);
  std::vector<TrainPass> passes_a, passes_b;
  (void)train_step(net_a, x1, y1, passes_a, opt_a);
  (void)train_step(net_b, x2, y2, passes_b, opt_b);

  const auto pa = net_a.get_parameters();
  const auto pb = net_b.get_parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_NEAR(pa[i], pb[i], 1e-12);
}

}  // namespace
}  // namespace miras::nn
