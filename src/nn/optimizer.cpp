#include "nn/optimizer.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/contracts.h"

namespace miras::nn {

namespace {
void ensure_state(std::vector<Tensor>& weight_state,
                  std::vector<Tensor>& bias_state,
                  const std::vector<DenseLayer>& layers) {
  if (weight_state.size() == layers.size()) return;
  weight_state.clear();
  bias_state.clear();
  for (const auto& layer : layers) {
    weight_state.emplace_back(layer.weights().rows(), layer.weights().cols());
    bias_state.emplace_back(layer.bias().rows(), layer.bias().cols());
  }
}
}  // namespace

AdamOptimizer::AdamOptimizer(double learning_rate, double beta1, double beta2,
                             double epsilon)
    : learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  MIRAS_EXPECTS(learning_rate > 0.0);
  MIRAS_EXPECTS(beta1 >= 0.0 && beta1 < 1.0);
  MIRAS_EXPECTS(beta2 >= 0.0 && beta2 < 1.0);
  MIRAS_EXPECTS(epsilon > 0.0);
}

void AdamOptimizer::step_scaled(std::vector<DenseLayer>& layers, double scale,
                                const StepFold& fold, kern::Isa isa) {
  if (fold.target != nullptr) {
    MIRAS_EXPECTS(fold.tau >= 0.0 && fold.tau <= 1.0);
    MIRAS_EXPECTS(fold.target->size() == layers.size());
    for (std::size_t l = 0; l < layers.size(); ++l) {
      const DenseLayer& target = (*fold.target)[l];
      MIRAS_EXPECTS(target.weights().same_shape(layers[l].weights()));
      MIRAS_EXPECTS(target.bias().same_shape(layers[l].bias()));
    }
  }
  ensure_state(weight_m_, bias_m_, layers);
  ensure_state(weight_v_, bias_v_, layers);
  ++t_;
  kern::AdamArgs args{};
  args.scale = scale;
  args.tau = fold.tau;
  args.beta1 = beta1_;
  args.beta2 = beta2_;
  args.learning_rate = learning_rate_;
  args.epsilon = epsilon_;
  args.bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  args.bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const auto update = [&](Tensor& param, const Tensor& grad, Tensor& m,
                          Tensor& v, Tensor* target) {
    args.param = param.data();
    args.grad = grad.data();
    args.m = m.data();
    args.v = v.data();
    args.target = target != nullptr ? target->data() : nullptr;
    args.n = param.size();
    kern::adam(isa, args);
  };
  for (std::size_t l = 0; l < layers.size(); ++l) {
    args.keep = l + 1 == layers.size() ? fold.head_keep : 1.0;
    DenseLayer* target = fold.target != nullptr ? &(*fold.target)[l] : nullptr;
    update(layers[l].weights(), layers[l].weight_grad(), weight_m_[l],
           weight_v_[l], target != nullptr ? &target->weights() : nullptr);
    update(layers[l].bias(), layers[l].bias_grad(), bias_m_[l], bias_v_[l],
           target != nullptr ? &target->bias() : nullptr);
  }
}

namespace {
void write_tensor_state(persist::BinaryWriter& out,
                        const std::vector<Tensor>& tensors) {
  out.u64(tensors.size());
  for (const Tensor& t : tensors) {
    out.u64(t.rows());
    out.u64(t.cols());
    for (std::size_t i = 0; i < t.size(); ++i) out.f64(t.data()[i]);
  }
}

std::vector<Tensor> read_tensor_state(persist::BinaryReader& in) {
  const std::uint64_t count = in.u64();
  std::vector<Tensor> tensors;
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::uint64_t rows = in.u64();
    const std::uint64_t cols = in.u64();
    if (rows != 0 && cols > in.remaining() / 8 / rows)
      throw std::runtime_error(
          "persist: optimizer moment shape exceeds remaining data in " +
          in.context());
    Tensor t(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
    for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = in.f64();
    tensors.push_back(std::move(t));
  }
  return tensors;
}
}  // namespace

void AdamOptimizer::save_state(persist::BinaryWriter& out) const {
  out.u64(t_);
  write_tensor_state(out, weight_m_);
  write_tensor_state(out, weight_v_);
  write_tensor_state(out, bias_m_);
  write_tensor_state(out, bias_v_);
}

namespace {
// Throws unless `moments` holds one tensor per layer, shaped like that
// layer's weights (or bias).
void check_moments(const std::vector<Tensor>& moments,
                   const std::vector<DenseLayer>& layers, bool bias,
                   const char* name, const std::string& context) {
  if (moments.size() != layers.size())
    throw std::runtime_error(
        std::string("persist: optimizer ") + name + " holds " +
        std::to_string(moments.size()) + " layers, the network has " +
        std::to_string(layers.size()) + " in " + context);
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const Tensor& param = bias ? layers[l].bias() : layers[l].weights();
    if (!moments[l].same_shape(param))
      throw std::runtime_error(
          std::string("persist: optimizer ") + name + " of layer " +
          std::to_string(l) + " is " + std::to_string(moments[l].rows()) +
          "x" + std::to_string(moments[l].cols()) + ", the layer's is " +
          std::to_string(param.rows()) + "x" + std::to_string(param.cols()) +
          " in " + context);
  }
}
}  // namespace

void AdamOptimizer::restore_state(persist::BinaryReader& in,
                                  const std::vector<DenseLayer>& layers) {
  const std::uint64_t t = in.u64();
  std::vector<Tensor> weight_m = read_tensor_state(in);
  std::vector<Tensor> weight_v = read_tensor_state(in);
  std::vector<Tensor> bias_m = read_tensor_state(in);
  std::vector<Tensor> bias_v = read_tensor_state(in);
  // An empty state was saved before the first step; step_scaled allocates
  // the moments for whatever network it then meets.
  if (!(weight_m.empty() && weight_v.empty() && bias_m.empty() &&
        bias_v.empty())) {
    check_moments(weight_m, layers, false, "weight first moment",
                  in.context());
    check_moments(weight_v, layers, false, "weight second moment",
                  in.context());
    check_moments(bias_m, layers, true, "bias first moment", in.context());
    check_moments(bias_v, layers, true, "bias second moment", in.context());
  }
  t_ = static_cast<std::size_t>(t);
  weight_m_ = std::move(weight_m);
  weight_v_ = std::move(weight_v);
  bias_m_ = std::move(bias_m);
  bias_v_ = std::move(bias_v);
}

}  // namespace miras::nn
