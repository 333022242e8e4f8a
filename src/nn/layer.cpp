#include "nn/layer.h"

#include <cmath>

#include "common/contracts.h"
#include "nn/kernels.h"

namespace miras::nn {

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim,
                       Activation activation, Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      activation_(activation),
      weights_(in_dim, out_dim),
      bias_(1, out_dim),
      weight_grad_(in_dim, out_dim),
      bias_grad_(1, out_dim) {
  MIRAS_EXPECTS(in_dim > 0 && out_dim > 0);
  const double fan_in = static_cast<double>(in_dim);
  const double fan_out = static_cast<double>(out_dim);
  const double scale = activation == Activation::kRelu
                           ? std::sqrt(2.0 / fan_in)                 // He
                           : std::sqrt(2.0 / (fan_in + fan_out));    // Glorot
  for (std::size_t i = 0; i < in_dim; ++i)
    for (std::size_t j = 0; j < out_dim; ++j)
      weights_(i, j) = rng.normal(0.0, scale);
}

DenseLayer::DenseLayer(Tensor weights, Tensor bias, Activation activation)
    : in_dim_(weights.rows()),
      out_dim_(weights.cols()),
      activation_(activation),
      weights_(std::move(weights)),
      bias_(std::move(bias)),
      weight_grad_(in_dim_, out_dim_),
      bias_grad_(1, out_dim_) {
  MIRAS_EXPECTS(in_dim_ > 0 && out_dim_ > 0);
  MIRAS_EXPECTS(bias_.rows() == 1 && bias_.cols() == out_dim_);
}

void DenseLayer::forward_into(const Tensor& x, Tensor& out) const {
  affine_into(x, nullptr, out);
}

void DenseLayer::affine_into(const Tensor& x, Tensor* pre,
                             Tensor& post) const {
  MIRAS_EXPECTS(x.cols() == in_dim_);
  const std::size_t m = x.rows();
  post.resize(m, out_dim_);
  if (pre != nullptr) pre->resize(m, out_dim_);
  // ReLU and identity fold into the GEMM's tile store; the others need the
  // whole pre-activation (tanh/sigmoid call libm, softmax is row-wise).
  if (activation_ == Activation::kRelu ||
      activation_ == Activation::kIdentity) {
    kern::gemm(x.data(), weights_.data(), post.data(), m, in_dim_, out_dim_,
               {bias_.data(), pre != nullptr ? pre->data() : nullptr,
                activation_ == Activation::kRelu});
    return;
  }
  Tensor& z = pre != nullptr ? *pre : post;
  kern::gemm(x.data(), weights_.data(), z.data(), m, in_dim_, out_dim_,
             {bias_.data(), nullptr, false});
  if (pre != nullptr) {
    activate_into(activation_, *pre, post);
  } else {
    activate_inplace(activation_, post);
  }
}

void DenseLayer::forward_shard(const Tensor& x, Tensor& pre,
                               Tensor& post) const {
  MIRAS_EXPECTS(&pre != &x && &post != &x && &pre != &post);
  affine_into(x, &pre, post);
}

const Tensor& DenseLayer::output_grad_pre(const Tensor& pre,
                                          const Tensor& post,
                                          const Tensor& grad_output,
                                          Tensor& scratch) const {
  if (activation_ == Activation::kIdentity) return grad_output;
  activation_backward_into(activation_, pre, post, grad_output, scratch);
  return scratch;
}

void DenseLayer::param_grad_shard(const Tensor& x, const Tensor& grad_pre,
                                  LayerGrad& grad) const {
  MIRAS_EXPECTS(x.cols() == in_dim_);
  MIRAS_EXPECTS(grad_pre.rows() == x.rows() && grad_pre.cols() == out_dim_);
  grad.weight.resize(in_dim_, out_dim_);
  kern::gemm_tn(x.data(), grad_pre.data(), grad.weight.data(), in_dim_,
                x.rows(), out_dim_);
  grad_pre.column_sums_into(grad.bias);
}

void DenseLayer::input_grad_shard(const Tensor& grad_pre, std::size_t begin,
                                  std::size_t end, Activation below,
                                  const Tensor& below_pre,
                                  const Tensor& below_post, Tensor& scratch,
                                  Tensor& out) const {
  switch (below) {
    case Activation::kIdentity:
      input_grad_into(grad_pre, begin, end, nullptr, out);
      return;
    case Activation::kRelu:
      MIRAS_EXPECTS(below_pre.rows() == grad_pre.rows() &&
                    below_pre.cols() == end - begin);
      MIRAS_EXPECTS(&out != &below_pre);
      input_grad_into(grad_pre, begin, end, below_pre.data(), out);
      return;
    default:
      input_grad_into(grad_pre, begin, end, nullptr, scratch);
      activation_backward_into(below, below_pre, below_post, scratch, out);
  }
}

void DenseLayer::input_grad_shard(const Tensor& grad_pre, std::size_t begin,
                                  std::size_t end, Tensor& out) const {
  input_grad_into(grad_pre, begin, end, nullptr, out);
}

void DenseLayer::input_grad_into(const Tensor& grad_pre, std::size_t begin,
                                 std::size_t end, const double* relu_mask,
                                 Tensor& out) const {
  MIRAS_EXPECTS(grad_pre.cols() == out_dim_);
  MIRAS_EXPECTS(begin <= end && end <= in_dim_);
  MIRAS_EXPECTS(&out != &grad_pre);
  out.resize(grad_pre.rows(), end - begin);
  kern::gemm_nt(grad_pre.data(), weights_.data() + begin * out_dim_,
                out.data(), grad_pre.rows(), out_dim_, end - begin,
                relu_mask);
}

std::size_t DenseLayer::parameter_count() const {
  return weights_.size() + bias_.size();
}

std::size_t parameter_count(const std::vector<DenseLayer>& layers) {
  std::size_t total = 0;
  for (const auto& layer : layers) total += layer.parameter_count();
  return total;
}

std::vector<double> get_parameters(const std::vector<DenseLayer>& layers) {
  std::vector<double> flat;
  flat.reserve(parameter_count(layers));
  for (const auto& layer : layers) {
    const Tensor& w = layer.weights();
    flat.insert(flat.end(), w.data(), w.data() + w.size());
    const Tensor& b = layer.bias();
    flat.insert(flat.end(), b.data(), b.data() + b.size());
  }
  return flat;
}

void set_parameters(std::vector<DenseLayer>& layers,
                    const std::vector<double>& flat) {
  MIRAS_EXPECTS(flat.size() == parameter_count(layers));
  std::size_t offset = 0;
  for (auto& layer : layers) {
    Tensor& w = layer.weights();
    for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = flat[offset + i];
    offset += w.size();
    Tensor& b = layer.bias();
    for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = flat[offset + i];
    offset += b.size();
  }
}

void soft_update(std::vector<DenseLayer>& layers,
                 const std::vector<DenseLayer>& source, double tau) {
  MIRAS_EXPECTS(tau >= 0.0 && tau <= 1.0);
  MIRAS_EXPECTS(layers.size() == source.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    Tensor& w = layers[l].weights();
    const Tensor& sw = source[l].weights();
    MIRAS_EXPECTS(w.same_shape(sw));
    for (std::size_t i = 0; i < w.size(); ++i)
      w.data()[i] = tau * sw.data()[i] + (1.0 - tau) * w.data()[i];
    Tensor& b = layers[l].bias();
    const Tensor& sb = source[l].bias();
    for (std::size_t i = 0; i < b.size(); ++i)
      b.data()[i] = tau * sb.data()[i] + (1.0 - tau) * b.data()[i];
  }
}

}  // namespace miras::nn
