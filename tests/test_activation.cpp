#include "nn/activation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/grad_check.h"

namespace miras::nn {
namespace {

TEST(Activation, NamesRoundTrip) {
  for (const Activation a :
       {Activation::kIdentity, Activation::kRelu, Activation::kTanh,
        Activation::kSigmoid, Activation::kSoftmax}) {
    EXPECT_EQ(activation_from_name(activation_name(a)), a);
  }
  EXPECT_THROW(activation_from_name("nope"), std::invalid_argument);
}

TEST(Activation, ReluValues) {
  const Tensor pre = Tensor::from_rows({{-1.0, 0.0, 2.5}});
  Tensor post;
  activate_into(Activation::kRelu, pre, post);
  EXPECT_DOUBLE_EQ(post(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(post(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(post(0, 2), 2.5);
}

TEST(Activation, TanhAndSigmoidValues) {
  const Tensor pre = Tensor::from_rows({{0.0, 1.0}});
  Tensor tanh_out, sig;
  activate_into(Activation::kTanh, pre, tanh_out);
  EXPECT_DOUBLE_EQ(tanh_out(0, 0), 0.0);
  EXPECT_NEAR(tanh_out(0, 1), std::tanh(1.0), 1e-12);
  activate_into(Activation::kSigmoid, pre, sig);
  EXPECT_DOUBLE_EQ(sig(0, 0), 0.5);
  EXPECT_NEAR(sig(0, 1), 1.0 / (1.0 + std::exp(-1.0)), 1e-12);
}

TEST(Activation, SoftmaxRowsSumToOne) {
  const Tensor pre = Tensor::from_rows({{1.0, 2.0, 3.0}, {-5.0, 0.0, 5.0}});
  Tensor post;
  activate_into(Activation::kSoftmax, pre, post);
  for (std::size_t r = 0; r < post.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < post.cols(); ++c) {
      EXPECT_GT(post(r, c), 0.0);
      sum += post(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Activation, SoftmaxShiftInvariant) {
  const Tensor a = Tensor::from_rows({{1.0, 2.0, 3.0}});
  const Tensor b = Tensor::from_rows({{101.0, 102.0, 103.0}});
  Tensor pa, pb;
  activate_into(Activation::kSoftmax, a, pa);
  activate_into(Activation::kSoftmax, b, pb);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(pa(0, c), pb(0, c), 1e-12);
}

TEST(Activation, SoftmaxNumericallyStableForLargeLogits) {
  const Tensor pre = Tensor::from_rows({{1000.0, 999.0}});
  Tensor post;
  activate_into(Activation::kSoftmax, pre, post);
  EXPECT_TRUE(std::isfinite(post(0, 0)));
  EXPECT_NEAR(post(0, 0) + post(0, 1), 1.0, 1e-12);
  EXPECT_GT(post(0, 0), post(0, 1));
}

// Finite-difference check of every activation's backward pass. The scalar
// function is f(pre) = sum(weights .* activation(pre)) for fixed weights.
double weighted_activation(Activation act, const Tensor& pre,
                           const Tensor& weights) {
  Tensor post;
  activate_into(act, pre, post);
  return weighted_sum(post, weights);
}

class ActivationGradient : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradient, MatchesFiniteDifferences) {
  const Activation act = GetParam();
  const Tensor pre =
      Tensor::from_rows({{0.3, -0.7, 1.2}, {2.0, 0.1, -1.5}});
  const Tensor weights =
      Tensor::from_rows({{1.0, -2.0, 0.5}, {0.7, 1.3, -0.2}});

  auto f = [&](const Tensor& x) {
    return weighted_activation(act, x, weights);
  };
  Tensor post, analytic;
  activate_into(act, pre, post);
  activation_backward_into(act, pre, post, weights, analytic);
  EXPECT_LT(max_gradient_error(f, pre, analytic), 1e-5)
      << "activation: " << activation_name(act);
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGradient,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kTanh,
                                           Activation::kSigmoid,
                                           Activation::kSoftmax),
                         [](const auto& info) {
                           return activation_name(info.param);
                         });

TEST(Activation, ReluGradientAwayFromKink) {
  // ReLU is non-differentiable at 0; check only at points away from it.
  const Tensor pre = Tensor::from_rows({{0.5, -0.5, 2.0, -2.0}});
  const Tensor weights = Tensor::from_rows({{1.0, 1.0, -1.0, 3.0}});
  auto f = [&](const Tensor& x) {
    return weighted_activation(Activation::kRelu, x, weights);
  };
  Tensor post, analytic;
  activate_into(Activation::kRelu, pre, post);
  activation_backward_into(Activation::kRelu, pre, post, weights, analytic);
  EXPECT_LT(max_gradient_error(f, pre, analytic), 1e-6);
}

}  // namespace
}  // namespace miras::nn
