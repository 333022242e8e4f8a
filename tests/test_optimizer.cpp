#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/contracts.h"
#include "common/rng.h"
#include "nn/train_shards.h"

namespace miras::nn {
namespace {

// A single 1x1 identity "network" makes optimiser math directly observable.
std::vector<DenseLayer> scalar_layer(double weight, double grad) {
  std::vector<DenseLayer> layers;
  layers.emplace_back(Tensor::from_rows({{weight}}), Tensor(1, 1),
                      Activation::kIdentity);
  layers[0].weight_grad()(0, 0) = grad;
  return layers;
}

TEST(Adam, FirstStepIsSignedLearningRate) {
  // With bias correction, the first Adam step is lr * g / (|g| + eps').
  auto layers = scalar_layer(0.0, 123.0);
  AdamOptimizer opt(0.01);
  opt.step_scaled(layers, 1.0);
  EXPECT_NEAR(layers[0].weights()(0, 0), -0.01, 1e-6);
}

TEST(Adam, NegativeGradientMovesUp) {
  auto layers = scalar_layer(0.0, -7.0);
  AdamOptimizer opt(0.01);
  opt.step_scaled(layers, 1.0);
  EXPECT_NEAR(layers[0].weights()(0, 0), 0.01, 1e-6);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimise f(w) = (w - 3)^2 using analytic gradient 2(w - 3).
  auto layers = scalar_layer(0.0, 0.0);
  AdamOptimizer opt(0.05);
  for (int i = 0; i < 2000; ++i) {
    const double w = layers[0].weights()(0, 0);
    layers[0].weight_grad()(0, 0) = 2.0 * (w - 3.0);
    opt.step_scaled(layers, 1.0);
  }
  EXPECT_NEAR(layers[0].weights()(0, 0), 3.0, 1e-3);
}

TEST(Adam, InvalidHyperparameters) {
  EXPECT_THROW(AdamOptimizer(0.0), ContractViolation);
  EXPECT_THROW(AdamOptimizer(0.1, 1.0), ContractViolation);
  EXPECT_THROW(AdamOptimizer(0.1, 0.9, 1.0), ContractViolation);
  EXPECT_THROW(AdamOptimizer(0.1, 0.9, 0.999, 0.0), ContractViolation);
}

TEST(Adam, BiasUpdatesToo) {
  std::vector<DenseLayer> layers;
  layers.emplace_back(Tensor(1, 1), Tensor(1, 1), Activation::kIdentity);
  layers[0].bias_grad()(0, 0) = 1.0;
  AdamOptimizer opt(0.01);
  opt.step_scaled(layers, 1.0);
  EXPECT_LT(layers[0].bias()(0, 0), 0.0);
}

// --- Checkpoint restore validates the moments against the network.

// A ReLU MLP in -> hidden... -> out with every gradient set to 0.1.
std::vector<DenseLayer> mlp(std::vector<std::size_t> widths) {
  Rng rng(3);
  std::vector<DenseLayer> layers;
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    layers.emplace_back(widths[l], widths[l + 1], Activation::kRelu, rng);
    layers.back().weight_grad().fill(0.1);
    layers.back().bias_grad().fill(0.1);
  }
  return layers;
}

// The state of an optimiser that stepped `layers` `steps` times.
persist::BinaryWriter saved_state(std::vector<DenseLayer> layers, int steps) {
  AdamOptimizer opt(0.01);
  for (int i = 0; i < steps; ++i) opt.step_scaled(layers, 1.0);
  persist::BinaryWriter out;
  opt.save_state(out);
  return out;
}

void restore(AdamOptimizer& opt, const persist::BinaryWriter& saved,
             const std::vector<DenseLayer>& layers) {
  persist::BinaryReader in(saved.bytes().data(), saved.size(), "adam");
  opt.restore_state(in, layers);
}

TEST(Adam, RestoreRejectsMomentShapeMismatch) {
  // Moments of a 2 -> 2 -> 2 MLP against a 2 -> 64 -> 2 one: a step would
  // walk past the 2x2 moment buffers.
  const persist::BinaryWriter saved = saved_state(mlp({2, 2, 2}), 1);
  const std::vector<DenseLayer> wider = mlp({2, 64, 2});
  AdamOptimizer opt(0.01);
  try {
    restore(opt, saved, wider);
    FAIL() << "restore accepted moments of the wrong shape";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("layer 0"), std::string::npos)
        << e.what();
  }
}

TEST(Adam, RestoreRejectsMomentCountMismatch) {
  // Moments of a two-layer MLP against a three-layer one would be dropped
  // silently by the first step.
  const persist::BinaryWriter saved = saved_state(mlp({2, 2, 2}), 1);
  const std::vector<DenseLayer> deeper = mlp({2, 2, 2, 2});
  AdamOptimizer opt(0.01);
  EXPECT_THROW(restore(opt, saved, deeper), std::runtime_error);
}

TEST(Adam, RestoreAcceptsStateSavedBeforeTheFirstStep) {
  // An empty state fits any network; the next step is a first step.
  const persist::BinaryWriter saved = saved_state(mlp({2, 2, 2}), 0);
  std::vector<DenseLayer> restored = mlp({2, 64, 2});
  std::vector<DenseLayer> fresh = restored;
  AdamOptimizer opt(0.01);
  restore(opt, saved, restored);
  opt.step_scaled(restored, 1.0);
  AdamOptimizer fresh_opt(0.01);
  fresh_opt.step_scaled(fresh, 1.0);
  for (std::size_t l = 0; l < fresh.size(); ++l)
    for (std::size_t i = 0; i < fresh[l].weights().size(); ++i)
      EXPECT_EQ(restored[l].weights().data()[i],
                fresh[l].weights().data()[i]);
}

// --- The global-norm clip inside sharded_adam_step. With epsilon 1 the
// first Adam step is lr * g / (|g| + 1), so it shows the clipped gradient.

constexpr double kLr = 0.01;

// One gradient block for a single 1x1 layer.
std::vector<TrainPass> one_block(double weight_grad, double bias_grad) {
  std::vector<TrainPass> passes(1);
  passes[0].grads.resize(1);
  passes[0].grads[0].weight = Tensor::from_rows({{weight_grad}});
  passes[0].grads[0].bias = Tensor::from_rows({{bias_grad}});
  return passes;
}

TEST(ClipGradients, NoopBelowThreshold) {
  auto layers = scalar_layer(0.0, 0.0);
  AdamOptimizer opt(kLr, 0.9, 0.999, 1.0);
  const double norm = sharded_adam_step(one_block(3.0, 0.0), 1, layers,
                                        10.0, opt);
  EXPECT_DOUBLE_EQ(norm, 3.0);
  EXPECT_DOUBLE_EQ(layers[0].weight_grad()(0, 0), 3.0);
  EXPECT_NEAR(layers[0].weights()(0, 0), -kLr * 3.0 / 4.0, 1e-12);
}

TEST(ClipGradients, ScalesAboveThreshold) {
  auto layers = scalar_layer(0.0, 0.0);
  AdamOptimizer opt(kLr, 0.9, 0.999, 1.0);
  const double norm = sharded_adam_step(one_block(30.0, 0.0), 1, layers,
                                        10.0, opt);
  EXPECT_DOUBLE_EQ(norm, 30.0);
  // The step sees the clipped gradient 10; the buffer keeps the reduction.
  EXPECT_NEAR(layers[0].weights()(0, 0), -kLr * 10.0 / 11.0, 1e-12);
  EXPECT_DOUBLE_EQ(layers[0].weight_grad()(0, 0), 30.0);
}

TEST(ClipGradients, GlobalNormAcrossTensors) {
  auto layers = scalar_layer(0.0, 0.0);
  AdamOptimizer opt(kLr, 0.9, 0.999, 1.0);
  // Global norm 5 clipped to 1: the gradients become 0.6 and 0.8.
  const double norm = sharded_adam_step(one_block(3.0, 4.0), 1, layers,
                                        1.0, opt);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(layers[0].weights()(0, 0), -kLr * 0.6 / 1.6, 1e-12);
  EXPECT_NEAR(layers[0].bias()(0, 0), -kLr * 0.8 / 1.8, 1e-12);
}

TEST(ClipGradients, ReduceChainsFromPositiveZeroInBlockOrder) {
  // Three blocks: the reduced gradient is ((0.0 + g0) + g1) + g2 per
  // element, so a sum of -0.0 blocks is +0.0 and the order of the rounding
  // adds is the block order.
  std::vector<TrainPass> passes = one_block(-0.0, 1e16);
  passes.push_back(one_block(-0.0, 1.0)[0]);
  passes.push_back(one_block(-0.0, -1e16)[0]);
  auto layers = scalar_layer(0.0, 0.0);
  AdamOptimizer opt(kLr);
  sharded_adam_step(passes, 3, layers, 10.0, opt);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(layers[0].weight_grad()(0, 0)),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(layers[0].bias_grad()(0, 0), ((0.0 + 1e16) + 1.0) + -1e16);
}

TEST(ClipGradients, NonFiniteNormThrowsBeforeTheStep) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    auto layers = scalar_layer(0.5, 0.0);
    AdamOptimizer opt(kLr);
    EXPECT_THROW(sharded_adam_step(one_block(1.0, bad), 1, layers, 10.0, opt),
                 std::runtime_error);
    EXPECT_EQ(layers[0].weights()(0, 0), 0.5);
    EXPECT_EQ(layers[0].bias()(0, 0), 0.0);
    // Adam's state is untouched too: the next finite step is a first step.
    auto fresh = scalar_layer(0.5, 0.0);
    AdamOptimizer fresh_opt(kLr);
    sharded_adam_step(one_block(2.0, 1.0), 1, layers, 10.0, opt);
    sharded_adam_step(one_block(2.0, 1.0), 1, fresh, 10.0, fresh_opt);
    EXPECT_EQ(layers[0].weights()(0, 0), fresh[0].weights()(0, 0));
    EXPECT_EQ(layers[0].bias()(0, 0), fresh[0].bias()(0, 0));
  }
}

TEST(ClipGradients, InvalidMaxNorm) {
  auto layers = scalar_layer(0.0, 0.0);
  AdamOptimizer opt(kLr);
  EXPECT_THROW(sharded_adam_step(one_block(1.0, 0.0), 1, layers, 0.0, opt),
               ContractViolation);
}

}  // namespace
}  // namespace miras::nn
