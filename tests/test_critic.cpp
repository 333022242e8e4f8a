#include "nn/critic_network.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.h"
#include "nn/grad_check.h"

namespace miras::nn {
namespace {

// Forward + backward of one gradient block through the shard path.
void forward_backward(const CriticNetwork& critic, const Tensor& s,
                      const Tensor& a, const Tensor& grad_q,
                      TrainPass& pass) {
  prepare_pass(critic.layers(), pass);
  (void)critic.forward_shard(s, a, pass);
  critic.backward_shard(s, a, grad_q, pass);
}

CriticSpec small_spec() {
  CriticSpec spec;
  spec.state_dim = 3;
  spec.action_dim = 2;
  spec.hidden_dims = {6, 5, 4};
  spec.hidden_activation = Activation::kTanh;
  return spec;
}

TEST(Critic, OutputIsScalarPerSample) {
  Rng rng(1);
  CriticNetwork critic(small_spec(), rng);
  const Tensor q = critic.predict(Tensor(5, 3), Tensor(5, 2));
  EXPECT_EQ(q.rows(), 5u);
  EXPECT_EQ(q.cols(), 1u);
}

TEST(Critic, ActionJoinsAtSecondLayer) {
  Rng rng(2);
  CriticNetwork critic(small_spec(), rng);
  EXPECT_EQ(critic.layers()[0].in_dim(), 3u);        // state only
  EXPECT_EQ(critic.layers()[1].in_dim(), 6u + 2u);   // h1 || action
  EXPECT_EQ(critic.layers().back().out_dim(), 1u);
}

TEST(Critic, PredictMatchesForward) {
  Rng rng(3);
  CriticNetwork critic(small_spec(), rng);
  const Tensor s = Tensor::from_rows({{0.1, 0.2, 0.3}});
  const Tensor a = Tensor::from_rows({{0.5, 0.5}});
  TrainPass pass;
  prepare_pass(critic.layers(), pass);
  EXPECT_DOUBLE_EQ(critic.forward_shard(s, a, pass)(0, 0),
                   critic.predict(s, a)(0, 0));
}

TEST(Critic, PredictOneMatchesBatch) {
  Rng rng(4);
  CriticNetwork critic(small_spec(), rng);
  const std::vector<double> s{0.1, -0.4, 0.8}, a{0.3, 0.7};
  EXPECT_DOUBLE_EQ(
      critic.predict_one(s, a),
      critic.predict(Tensor::row_vector(s), Tensor::row_vector(a))(0, 0));
}

TEST(Critic, ActionActuallyAffectsOutput) {
  Rng rng(5);
  CriticNetwork critic(small_spec(), rng);
  const std::vector<double> s{0.1, 0.2, 0.3};
  const double q1 = critic.predict_one(s, {1.0, 0.0});
  const double q2 = critic.predict_one(s, {0.0, 1.0});
  EXPECT_NE(q1, q2);
}

TEST(Critic, ParameterGradientsMatchFiniteDifference) {
  // Every parameter, including layer 0's, whose gradient reaches it through
  // the h1 half of the joint layer's input.
  Rng rng(6);
  CriticNetwork critic(small_spec(), rng);
  const Tensor s = Tensor::from_rows({{0.2, -0.3, 0.7}, {0.9, 0.1, -0.5}});
  const Tensor a = Tensor::from_rows({{0.6, 0.4}, {0.2, 0.8}});
  const Tensor grad_q = Tensor::from_rows({{1.0}, {-0.5}});

  TrainPass pass;
  forward_backward(critic, s, a, grad_q, pass);
  std::vector<double> analytic;
  for (const LayerGrad& grad : pass.grads) {
    analytic.insert(analytic.end(), grad.weight.data(),
                    grad.weight.data() + grad.weight.size());
    analytic.insert(analytic.end(), grad.bias.data(),
                    grad.bias.data() + grad.bias.size());
  }
  const std::vector<double> flat = critic.get_parameters();
  ASSERT_EQ(analytic.size(), flat.size());

  const double eps = 1e-6;
  for (std::size_t idx = 0; idx < flat.size(); ++idx) {
    CriticNetwork probe = critic;
    std::vector<double> perturbed = flat;
    perturbed[idx] += eps;
    probe.set_parameters(perturbed);
    const double plus = weighted_sum(probe.predict(s, a), grad_q);
    perturbed[idx] -= 2 * eps;
    probe.set_parameters(perturbed);
    const double minus = weighted_sum(probe.predict(s, a), grad_q);
    const double numeric = (plus - minus) / (2 * eps);
    EXPECT_NEAR(analytic[idx], numeric, 1e-6 + 1e-5 * std::abs(numeric))
        << "parameter " << idx;
  }
}

TEST(Critic, ActionGradientMatchesFiniteDifference) {
  // dQ/da is the deterministic policy gradient signal — the most important
  // gradient in DDPG; check it carefully.
  Rng rng(7);
  CriticNetwork critic(small_spec(), rng);
  const Tensor s = Tensor::from_rows({{0.5, 0.5, -0.2}, {-0.1, 0.8, 0.3}});
  const Tensor a = Tensor::from_rows({{0.3, 0.7}, {0.9, 0.1}});
  const Tensor grad_q = Tensor::from_rows({{1.0}, {1.0}});

  auto f = [&](const Tensor& actions) {
    return weighted_sum(critic.predict(s, actions), grad_q);
  };
  TrainPass pass;
  forward_backward(critic, s, a, grad_q, pass);
  EXPECT_LT(max_gradient_error(f, a, pass.grad_actions), 1e-5);
}

TEST(Critic, ParameterRoundTrip) {
  Rng rng(8);
  CriticNetwork critic(small_spec(), rng);
  CriticNetwork other(small_spec(), rng);
  other.set_parameters(critic.get_parameters());
  const std::vector<double> s{0.1, 0.1, 0.1}, a{0.5, 0.5};
  EXPECT_DOUBLE_EQ(critic.predict_one(s, a), other.predict_one(s, a));
}

TEST(Critic, SoftUpdateInterpolates) {
  Rng rng(9);
  CriticNetwork a(small_spec(), rng);
  CriticNetwork b(small_spec(), rng);
  const auto pa = a.get_parameters();
  const auto pb = b.get_parameters();
  soft_update(b.layers(), a.layers(), 0.1);
  const auto blended = b.get_parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_NEAR(blended[i], 0.1 * pa[i] + 0.9 * pb[i], 1e-12);
}

TEST(Critic, RequiresAtLeastTwoHiddenLayers) {
  Rng rng(10);
  CriticSpec spec = small_spec();
  spec.hidden_dims = {6};
  EXPECT_THROW(CriticNetwork(spec, rng), ContractViolation);
}

TEST(Critic, FromLayersInfersDimensions) {
  Rng rng(11);
  CriticNetwork original(small_spec(), rng);
  std::vector<DenseLayer> layers = original.layers();
  CriticNetwork rebuilt(std::move(layers));
  EXPECT_EQ(rebuilt.state_dim(), 3u);
  EXPECT_EQ(rebuilt.action_dim(), 2u);
  const std::vector<double> s{0.2, 0.4, -0.1}, a{0.6, 0.4};
  EXPECT_DOUBLE_EQ(rebuilt.predict_one(s, a), original.predict_one(s, a));
}

}  // namespace
}  // namespace miras::nn
