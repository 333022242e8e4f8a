#include "nn/activation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contracts.h"

namespace miras::nn {

namespace {

// Elementwise kernels reading `src` and writing `dst` (which may be the
// same pointer: every kernel writes dst[i] from src[i] only). Dispatch
// happens once per tensor; the loops inline and vectorise.
void relu_kernel(const double* src, double* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] > 0.0 ? src[i] : 0.0;
}

void tanh_kernel(const double* src, double* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = std::tanh(src[i]);
}

void sigmoid_kernel(const double* src, double* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = 1.0 / (1.0 + std::exp(-src[i]));
}

void copy_kernel(const double* src, double* dst, std::size_t n) {
  if (dst != src)
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

// Row-wise softmax, numerically stabilised by subtracting the row max.
void softmax_kernel(const double* src, double* dst, std::size_t rows,
                    std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* in = src + r * cols;
    double* out = dst + r * cols;
    double row_max = in[0];
    for (std::size_t c = 1; c < cols; ++c) row_max = std::max(row_max, in[c]);
    double denom = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      out[c] = std::exp(in[c] - row_max);
      denom += out[c];
    }
    for (std::size_t c = 0; c < cols; ++c) out[c] /= denom;
  }
}

void activate_kernel(Activation a, const double* src, double* dst,
                     std::size_t rows, std::size_t cols) {
  const std::size_t n = rows * cols;
  switch (a) {
    case Activation::kIdentity: copy_kernel(src, dst, n); return;
    case Activation::kRelu: relu_kernel(src, dst, n); return;
    case Activation::kTanh: tanh_kernel(src, dst, n); return;
    case Activation::kSigmoid: sigmoid_kernel(src, dst, n); return;
    case Activation::kSoftmax: softmax_kernel(src, dst, rows, cols); return;
  }
  throw std::logic_error("unreachable activation");
}

}  // namespace

std::string activation_name(Activation a) {
  switch (a) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
    case Activation::kTanh: return "tanh";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kSoftmax: return "softmax";
  }
  return "?";
}

Activation activation_from_name(const std::string& name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "relu") return Activation::kRelu;
  if (name == "tanh") return Activation::kTanh;
  if (name == "sigmoid") return Activation::kSigmoid;
  if (name == "softmax") return Activation::kSoftmax;
  throw std::invalid_argument("unknown activation: " + name);
}

void activate_into(Activation a, const Tensor& pre, Tensor& out) {
  MIRAS_EXPECTS(&out != &pre);
  out.resize(pre.rows(), pre.cols());
  activate_kernel(a, pre.data(), out.data(), pre.rows(), pre.cols());
}

void activate_inplace(Activation a, Tensor& values) {
  activate_kernel(a, values.data(), values.data(), values.rows(),
                  values.cols());
}

void activation_backward_into(Activation a, const Tensor& pre,
                              const Tensor& post, const Tensor& grad_post,
                              Tensor& grad_pre) {
  MIRAS_EXPECTS(pre.same_shape(grad_post));
  MIRAS_EXPECTS(&grad_pre != &pre && &grad_pre != &post &&
                &grad_pre != &grad_post);
  const std::size_t rows = pre.rows(), cols = pre.cols();
  grad_pre.resize(rows, cols);
  const std::size_t n = rows * cols;
  const double* z = pre.data();
  const double* y = post.data();
  const double* g = grad_post.data();
  double* out = grad_pre.data();
  switch (a) {
    case Activation::kIdentity:
      for (std::size_t i = 0; i < n; ++i) out[i] = g[i];
      return;
    case Activation::kRelu:
      // Load g[i] unconditionally so the loop is a select, not control
      // flow, and vectorises; the values are unchanged.
      for (std::size_t i = 0; i < n; ++i) {
        const double gi = g[i];
        out[i] = z[i] > 0.0 ? gi : 0.0;
      }
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i)
        out[i] = (1.0 - y[i] * y[i]) * g[i];
      return;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) out[i] = y[i] * (1.0 - y[i]) * g[i];
      return;
    case Activation::kSoftmax:
      // d(pre_j) = post_j * (grad_j - sum_k grad_k post_k), row-wise.
      for (std::size_t r = 0; r < rows; ++r) {
        const double* yr = y + r * cols;
        const double* gr = g + r * cols;
        double* or_ = out + r * cols;
        double dot = 0.0;
        for (std::size_t k = 0; k < cols; ++k) dot += gr[k] * yr[k];
        for (std::size_t j = 0; j < cols; ++j) or_[j] = yr[j] * (gr[j] - dot);
      }
      return;
  }
  throw std::logic_error("unreachable activation");
}

}  // namespace miras::nn
