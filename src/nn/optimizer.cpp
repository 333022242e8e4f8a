#include "nn/optimizer.h"

#include <cmath>

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

SgdOptimizer::SgdOptimizer(double learning_rate, double momentum)
    : learning_rate_(learning_rate), momentum_(momentum) {
  MIRAS_EXPECTS(learning_rate > 0.0);
  MIRAS_EXPECTS(momentum >= 0.0 && momentum < 1.0);
}

void SgdOptimizer::step(std::vector<DenseLayer>& layers) {
  ensure_state(weight_velocity_, bias_velocity_, layers);
  for (std::size_t l = 0; l < layers.size(); ++l) {
    auto update = [&](Tensor& param, const Tensor& grad, Tensor& velocity) {
      for (std::size_t i = 0; i < param.size(); ++i) {
        velocity.data()[i] =
            momentum_ * velocity.data()[i] - learning_rate_ * grad.data()[i];
        param.data()[i] += velocity.data()[i];
      }
    };
    update(layers[l].weights(), layers[l].weight_grad(), weight_velocity_[l]);
    update(layers[l].bias(), layers[l].bias_grad(), bias_velocity_[l]);
  }
}

void SgdOptimizer::reset() {
  weight_velocity_.clear();
  bias_velocity_.clear();
}

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

void AdamOptimizer::step(std::vector<DenseLayer>& layers) {
  step_scaled(layers, 1.0);
}

namespace {
// One Adam update over n parameters, branch-free so it vectorises: the
// clip scale is a template parameter, hoisting the branch that keeps the
// unclipped path reading the exact stored gradient out of the loop, and
// this file builds with -fno-math-errno (src/CMakeLists.txt), which drops
// std::sqrt's errno call path. Square root and division are correctly
// rounded in vector form, so every element gets the scalar loop's bits.
template <bool kScaled>
void adam_update(double* param, const double* grad, double* m, double* v,
                 std::size_t n, double scale, double beta1, double beta2,
                 double learning_rate, double epsilon, double bias1,
                 double bias2) {
  for (std::size_t i = 0; i < n; ++i) {
    const double g = kScaled ? grad[i] * scale : grad[i];
    m[i] = beta1 * m[i] + (1.0 - beta1) * g;
    v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
    const double m_hat = m[i] / bias1;
    const double v_hat = v[i] / bias2;
    param[i] -= learning_rate * m_hat / (std::sqrt(v_hat) + epsilon);
  }
}
}  // namespace

void AdamOptimizer::step_scaled(std::vector<DenseLayer>& layers,
                                double scale) {
  ensure_state(weight_m_, bias_m_, layers);
  ensure_state(weight_v_, bias_v_, layers);
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const auto update = [&](Tensor& param, const Tensor& grad, Tensor& m,
                          Tensor& v) {
    const auto run = scale == 1.0 ? adam_update<false> : adam_update<true>;
    run(param.data(), grad.data(), m.data(), v.data(), param.size(), scale,
        beta1_, beta2_, learning_rate_, epsilon_, bias1, bias2);
  };
  for (std::size_t l = 0; l < layers.size(); ++l) {
    update(layers[l].weights(), layers[l].weight_grad(), weight_m_[l],
           weight_v_[l]);
    update(layers[l].bias(), layers[l].bias_grad(), bias_m_[l], bias_v_[l]);
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

void AdamOptimizer::restore_state(persist::BinaryReader& in) {
  t_ = in.u64();
  weight_m_ = read_tensor_state(in);
  weight_v_ = read_tensor_state(in);
  bias_m_ = read_tensor_state(in);
  bias_v_ = read_tensor_state(in);
}

void AdamOptimizer::reset() {
  weight_m_.clear();
  weight_v_.clear();
  bias_m_.clear();
  bias_v_.clear();
  t_ = 0;
}

double clip_gradients(std::vector<DenseLayer>& layers, double max_norm) {
  MIRAS_EXPECTS(max_norm > 0.0);
  double sq_norm = 0.0;
  for (const auto& layer : layers) {
    for (std::size_t i = 0; i < layer.weight_grad().size(); ++i) {
      const double g = layer.weight_grad().data()[i];
      sq_norm += g * g;
    }
    for (std::size_t i = 0; i < layer.bias_grad().size(); ++i) {
      const double g = layer.bias_grad().data()[i];
      sq_norm += g * g;
    }
  }
  const double norm = std::sqrt(sq_norm);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (auto& layer : layers) {
      layer.weight_grad() *= scale;
      layer.bias_grad() *= scale;
    }
  }
  return norm;
}

}  // namespace miras::nn
