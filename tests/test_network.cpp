#include "nn/network.h"

#include <gtest/gtest.h>

#include "common/contracts.h"
#include "nn/grad_check.h"

namespace miras::nn {
namespace {

// Forward + backward of one gradient block through the shard path.
const Tensor& forward_backward(const Network& net, const Tensor& x,
                               const Tensor& grad_output, TrainPass& pass) {
  prepare_pass(net.layers(), pass);
  (void)net.forward_shard(x, pass);
  return net.backward_shard(x, grad_output, pass);
}

MlpSpec small_spec() {
  MlpSpec spec;
  spec.input_dim = 3;
  spec.hidden_dims = {5, 4};
  spec.output_dim = 2;
  spec.hidden_activation = Activation::kTanh;
  spec.output_activation = Activation::kIdentity;
  return spec;
}

TEST(Network, ShapesFromSpec) {
  Rng rng(1);
  Network net(small_spec(), rng);
  EXPECT_EQ(net.input_dim(), 3u);
  EXPECT_EQ(net.output_dim(), 2u);
  EXPECT_EQ(net.num_layers(), 3u);
  EXPECT_EQ(net.layer(0).out_dim(), 5u);
  EXPECT_EQ(net.layer(1).out_dim(), 4u);
}

TEST(Network, ForwardShape) {
  Rng rng(2);
  Network net(small_spec(), rng);
  TrainPass pass;
  prepare_pass(net.layers(), pass);
  const Tensor out = net.forward_shard(Tensor(7, 3), pass);
  EXPECT_EQ(out.rows(), 7u);
  EXPECT_EQ(out.cols(), 2u);
}

TEST(Network, PredictMatchesForward) {
  Rng rng(3);
  Network net(small_spec(), rng);
  const Tensor x = Tensor::from_rows({{0.1, -0.5, 0.9}});
  TrainPass pass;
  prepare_pass(net.layers(), pass);
  const Tensor a = net.forward_shard(x, pass);
  const Tensor b = net.predict(x);
  EXPECT_DOUBLE_EQ(a(0, 0), b(0, 0));
  EXPECT_DOUBLE_EQ(a(0, 1), b(0, 1));
}

TEST(Network, PredictOneMatchesBatch) {
  Rng rng(4);
  Network net(small_spec(), rng);
  const std::vector<double> x{0.3, 0.1, -0.2};
  const auto single = net.predict_one(x);
  const Tensor batch = net.predict(Tensor::row_vector(x));
  EXPECT_DOUBLE_EQ(single[0], batch(0, 0));
  EXPECT_DOUBLE_EQ(single[1], batch(0, 1));
}

TEST(Network, FullInputGradientMatchesFiniteDifference) {
  Rng rng(5);
  Network net(small_spec(), rng);
  const Tensor x = Tensor::from_rows({{0.2, -0.1, 0.5}, {1.0, 0.3, -0.8}});
  const Tensor weights = Tensor::from_rows({{1.0, -0.5}, {0.3, 2.0}});

  auto f = [&](const Tensor& input) {
    return weighted_sum(net.predict(input), weights);
  };
  TrainPass pass;
  const Tensor grad = forward_backward(net, x, weights, pass);
  EXPECT_LT(max_gradient_error(f, x, grad), 1e-5);
}

TEST(Network, ParameterGradientsMatchFiniteDifference) {
  Rng rng(6);
  Network net(small_spec(), rng);
  const Tensor x = Tensor::from_rows({{0.4, 0.2, -0.6}});
  const Tensor out_weights = Tensor::from_rows({{1.0, 1.0}});

  TrainPass pass;
  (void)forward_backward(net, x, out_weights, pass);

  // Check via the flat parameter vector: df/dp for a few sampled indices.
  const std::vector<double> flat = net.get_parameters();
  std::vector<double> analytic;
  for (const LayerGrad& grad : pass.grads) {
    analytic.insert(analytic.end(), grad.weight.data(),
                    grad.weight.data() + grad.weight.size());
    analytic.insert(analytic.end(), grad.bias.data(),
                    grad.bias.data() + grad.bias.size());
  }
  ASSERT_EQ(analytic.size(), flat.size());

  Rng pick(7);
  for (int trial = 0; trial < 25; ++trial) {
    const auto idx = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(flat.size()) - 1));
    const double eps = 1e-6;
    Network probe = net;
    std::vector<double> perturbed = flat;
    perturbed[idx] += eps;
    probe.set_parameters(perturbed);
    const double plus = weighted_sum(probe.predict(x), out_weights);
    perturbed[idx] -= 2 * eps;
    probe.set_parameters(perturbed);
    const double minus = weighted_sum(probe.predict(x), out_weights);
    const double numeric = (plus - minus) / (2 * eps);
    EXPECT_NEAR(analytic[idx], numeric, 1e-4 + 1e-3 * std::abs(numeric));
  }
}

TEST(Network, ParameterRoundTrip) {
  Rng rng(8);
  Network net(small_spec(), rng);
  const std::vector<double> params = net.get_parameters();
  EXPECT_EQ(params.size(), net.parameter_count());
  Network other(small_spec(), rng);  // different init
  other.set_parameters(params);
  EXPECT_EQ(other.get_parameters(), params);
  const Tensor x = Tensor::from_rows({{0.1, 0.2, 0.3}});
  EXPECT_DOUBLE_EQ(net.predict(x)(0, 0), other.predict(x)(0, 0));
}

TEST(Network, SetParametersSizeChecked) {
  Rng rng(9);
  Network net(small_spec(), rng);
  EXPECT_THROW(net.set_parameters(std::vector<double>(3)), ContractViolation);
}

TEST(Network, PerturbChangesOutputs) {
  Rng rng(10);
  Network net(small_spec(), rng);
  Network perturbed = net;
  Rng noise_rng(11);
  perturbed.perturb_parameters(0.5, noise_rng);
  const Tensor x = Tensor::from_rows({{0.5, -0.5, 0.2}});
  EXPECT_NE(net.predict(x)(0, 0), perturbed.predict(x)(0, 0));
}

TEST(Network, PerturbZeroStddevIsIdentity) {
  Rng rng(12);
  Network net(small_spec(), rng);
  Network copy = net;
  Rng noise_rng(13);
  copy.perturb_parameters(0.0, noise_rng);
  EXPECT_EQ(copy.get_parameters(), net.get_parameters());
}

TEST(Network, SoftUpdateFullTauCopies) {
  Rng rng(14);
  Network a(small_spec(), rng);
  Network b(small_spec(), rng);
  b.soft_update_from(a, 1.0);
  EXPECT_EQ(b.get_parameters(), a.get_parameters());
}

TEST(Network, SoftUpdateInterpolates) {
  Rng rng(15);
  Network a(small_spec(), rng);
  Network b(small_spec(), rng);
  const std::vector<double> pa = a.get_parameters();
  const std::vector<double> pb = b.get_parameters();
  b.soft_update_from(a, 0.25);
  const std::vector<double> blended = b.get_parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_NEAR(blended[i], 0.25 * pa[i] + 0.75 * pb[i], 1e-12);
}

TEST(Network, LayerConstructorValidatesDimensionChain) {
  Rng rng(16);
  std::vector<DenseLayer> layers;
  layers.emplace_back(2, 3, Activation::kRelu, rng);
  layers.emplace_back(4, 1, Activation::kIdentity, rng);  // mismatched
  EXPECT_THROW(Network{std::move(layers)}, ContractViolation);
}

TEST(Network, CopySemantics) {
  Rng rng(17);
  Network net(small_spec(), rng);
  Network copy = net;
  Rng noise(18);
  copy.perturb_parameters(1.0, noise);
  // The original must be unaffected (deep copy).
  EXPECT_NE(copy.get_parameters(), net.get_parameters());
}

}  // namespace
}  // namespace miras::nn
