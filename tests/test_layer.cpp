#include "nn/layer.h"

#include <gtest/gtest.h>

#include "common/contracts.h"
#include "nn/grad_check.h"

namespace miras::nn {
namespace {

Tensor forward(const DenseLayer& layer, const Tensor& x) {
  Tensor out;
  layer.forward_into(x, out);
  return out;
}

// One layer's training pass through the shard API: forward_shard, then
// dL/d(pre) from dL/d(output), the parameter gradients and dL/dx.
struct LayerPass {
  Tensor pre, post, scratch, grad_input;
  LayerGrad grad;
};

void forward_backward(const DenseLayer& layer, const Tensor& x,
                      const Tensor& grad_output, LayerPass& pass) {
  layer.forward_shard(x, pass.pre, pass.post);
  const Tensor& grad_pre =
      layer.output_grad_pre(pass.pre, pass.post, grad_output, pass.scratch);
  layer.param_grad_shard(x, grad_pre, pass.grad);
  layer.input_grad_shard(grad_pre, 0, layer.in_dim(), pass.grad_input);
}

double sum_of_squares(const Tensor& t) {
  double acc = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) acc += t.data()[i] * t.data()[i];
  return acc;
}

TEST(DenseLayer, ForwardKnownValues) {
  Rng rng(1);
  DenseLayer layer(2, 2, Activation::kIdentity, rng);
  layer.weights() = Tensor::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  layer.bias() = Tensor::row_vector({0.5, -0.5});
  const Tensor out = forward(layer, Tensor::from_rows({{1.0, 1.0}}));
  EXPECT_DOUBLE_EQ(out(0, 0), 4.5);   // 1*1 + 1*3 + 0.5
  EXPECT_DOUBLE_EQ(out(0, 1), 5.5);   // 1*2 + 1*4 - 0.5
}

TEST(DenseLayer, ForwardIntoMatchesForwardShard) {
  Rng rng(2);
  DenseLayer layer(3, 4, Activation::kTanh, rng);
  const Tensor x = Tensor::from_rows({{0.1, -0.2, 0.3}, {1.0, 2.0, -1.0}});
  Tensor pre, post;
  layer.forward_shard(x, pre, post);
  const Tensor b = forward(layer, x);
  for (std::size_t r = 0; r < post.rows(); ++r)
    for (std::size_t c = 0; c < post.cols(); ++c)
      EXPECT_DOUBLE_EQ(post(r, c), b(r, c));
}

TEST(DenseLayer, InputDimChecked) {
  Rng rng(3);
  DenseLayer layer(3, 2, Activation::kRelu, rng);
  EXPECT_THROW(forward(layer, Tensor(1, 4)), ContractViolation);
}

TEST(DenseLayer, InputGradientMatchesFiniteDifference) {
  Rng rng(4);
  DenseLayer layer(3, 2, Activation::kTanh, rng);
  const Tensor x = Tensor::from_rows({{0.2, -0.4, 0.7}, {1.1, 0.0, -0.3}});
  const Tensor weights = Tensor::from_rows({{1.0, -1.0}, {0.5, 2.0}});

  auto f = [&](const Tensor& input) {
    return weighted_sum(forward(layer, input), weights);
  };
  LayerPass pass;
  forward_backward(layer, x, weights, pass);
  EXPECT_LT(max_gradient_error(f, x, pass.grad_input), 1e-5);
}

TEST(DenseLayer, WeightGradientMatchesFiniteDifference) {
  Rng rng(5);
  DenseLayer layer(2, 3, Activation::kSigmoid, rng);
  const Tensor x = Tensor::from_rows({{0.5, -1.0}, {0.2, 0.9}});
  const Tensor out_weights =
      Tensor::from_rows({{1.0, 0.5, -1.0}, {-0.5, 2.0, 1.0}});

  LayerPass pass;
  forward_backward(layer, x, out_weights, pass);

  auto f = [&](const Tensor& w) {
    const DenseLayer probe(w, layer.bias(), layer.activation());
    return weighted_sum(forward(probe, x), out_weights);
  };
  EXPECT_LT(max_gradient_error(f, layer.weights(), pass.grad.weight), 1e-5);
}

TEST(DenseLayer, BiasGradientMatchesFiniteDifference) {
  Rng rng(6);
  DenseLayer layer(2, 2, Activation::kTanh, rng);
  const Tensor x = Tensor::from_rows({{0.3, 0.8}, {-0.6, 0.1}});
  const Tensor out_weights = Tensor::from_rows({{2.0, -1.0}, {1.0, 1.0}});

  LayerPass pass;
  forward_backward(layer, x, out_weights, pass);

  auto f = [&](const Tensor& b) {
    const DenseLayer probe(layer.weights(), b, layer.activation());
    return weighted_sum(forward(probe, x), out_weights);
  };
  EXPECT_LT(max_gradient_error(f, layer.bias(), pass.grad.bias), 1e-5);
}

TEST(DenseLayer, ParamGradShardOverwritesPreviousBlock) {
  // Block gradients are written, never accumulated: a pass reused for a
  // second block holds exactly what a fresh pass computes for it.
  Rng rng(7);
  DenseLayer layer(2, 2, Activation::kIdentity, rng);
  const Tensor g = Tensor::from_rows({{1.0, 1.0}});
  LayerPass reused, fresh;
  forward_backward(layer, Tensor::from_rows({{5.0, -3.0}}), g, reused);
  forward_backward(layer, Tensor::from_rows({{1.0, 2.0}}), g, reused);
  forward_backward(layer, Tensor::from_rows({{1.0, 2.0}}), g, fresh);
  for (std::size_t i = 0; i < fresh.grad.weight.size(); ++i)
    EXPECT_EQ(reused.grad.weight.data()[i], fresh.grad.weight.data()[i]);
  for (std::size_t i = 0; i < fresh.grad.bias.size(); ++i)
    EXPECT_EQ(reused.grad.bias.data()[i], fresh.grad.bias.data()[i]);
}

TEST(DenseLayer, HeInitialisationScale) {
  Rng rng(9);
  DenseLayer layer(1000, 50, Activation::kRelu, rng);
  const Tensor& w = layer.weights();
  const double variance = sum_of_squares(w) / static_cast<double>(w.size());
  EXPECT_NEAR(variance, 2.0 / 1000.0, 2.0 / 1000.0 * 0.15);
}

TEST(DenseLayer, BiasStartsAtZero) {
  Rng rng(10);
  DenseLayer layer(4, 4, Activation::kRelu, rng);
  EXPECT_DOUBLE_EQ(sum_of_squares(layer.bias()), 0.0);
}

TEST(DenseLayer, ParameterCount) {
  Rng rng(11);
  DenseLayer layer(5, 7, Activation::kRelu, rng);
  EXPECT_EQ(layer.parameter_count(), 5u * 7u + 7u);
}

TEST(DenseLayer, ExplicitParameterConstructor) {
  DenseLayer layer(Tensor::from_rows({{1.0}, {2.0}}),
                   Tensor::row_vector({3.0}), Activation::kIdentity);
  EXPECT_EQ(layer.in_dim(), 2u);
  EXPECT_EQ(layer.out_dim(), 1u);
  const Tensor out = forward(layer, Tensor::from_rows({{1.0, 1.0}}));
  EXPECT_DOUBLE_EQ(out(0, 0), 6.0);
}

TEST(DenseLayer, ExplicitConstructorValidatesBias) {
  EXPECT_THROW(DenseLayer(Tensor(2, 3), Tensor(1, 2), Activation::kRelu),
               ContractViolation);
}

}  // namespace
}  // namespace miras::nn
