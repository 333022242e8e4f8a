// Finite-difference gradient checking (header-only; used by the test suite
// to validate every analytic backward pass).
#pragma once

#include <cmath>
#include <functional>

#include "common/contracts.h"
#include "nn/tensor.h"

namespace miras::nn {

/// sum_ij a(i, j) * w(i, j): the scalar probe the gradient checks
/// differentiate. Its gradient with respect to `a` is `w`.
inline double weighted_sum(const Tensor& a, const Tensor& w) {
  MIRAS_EXPECTS(a.same_shape(w));
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a.data()[i] * w.data()[i];
  return acc;
}

/// Central-difference estimate of d f / d x(i, j).
inline double finite_difference(const std::function<double(const Tensor&)>& f,
                                Tensor x, std::size_t i, std::size_t j,
                                double eps = 1e-6) {
  const double original = x(i, j);
  x(i, j) = original + eps;
  const double plus = f(x);
  x(i, j) = original - eps;
  const double minus = f(x);
  return (plus - minus) / (2.0 * eps);
}

/// Max relative error between an analytic gradient tensor and its
/// finite-difference estimate over all elements of x.
inline double max_gradient_error(const std::function<double(const Tensor&)>& f,
                                 const Tensor& x, const Tensor& analytic_grad,
                                 double eps = 1e-6) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const double numeric = finite_difference(f, x, i, j, eps);
      const double analytic = analytic_grad(i, j);
      const double denom =
          std::max({std::abs(numeric), std::abs(analytic), 1e-8});
      worst = std::max(worst, std::abs(numeric - analytic) / denom);
    }
  }
  return worst;
}

}  // namespace miras::nn
