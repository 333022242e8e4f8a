#include "nn/loss.h"

#include <gtest/gtest.h>

#include "common/contracts.h"
#include "nn/grad_check.h"

namespace miras::nn {
namespace {

// Every test takes the whole prediction as one block: total_elements ==
// prediction.size() is the plain full-batch loss.

TEST(MseLoss, ZeroWhenEqual) {
  const Tensor p = Tensor::from_rows({{1.0, 2.0}});
  Tensor grad;
  EXPECT_DOUBLE_EQ(mse_loss_partial_into(p, p, p.size(), grad), 0.0);
  for (std::size_t i = 0; i < grad.size(); ++i)
    EXPECT_DOUBLE_EQ(grad.data()[i], 0.0);
}

TEST(MseLoss, KnownValue) {
  const Tensor p = Tensor::from_rows({{2.0, 0.0}});
  const Tensor t = Tensor::from_rows({{0.0, 0.0}});
  Tensor grad;
  // 0.5 * (4 + 0) / 2 elements = 1.0
  EXPECT_DOUBLE_EQ(mse_loss_partial_into(p, t, p.size(), grad), 1.0);
}

TEST(MseLoss, GradientMatchesFiniteDifference) {
  const Tensor p = Tensor::from_rows({{1.5, -2.0}, {0.3, 0.9}});
  const Tensor t = Tensor::from_rows({{1.0, 1.0}, {0.0, 2.0}});
  auto f = [&](const Tensor& pred) {
    Tensor g;
    return mse_loss_partial_into(pred, t, pred.size(), g);
  };
  Tensor grad;
  mse_loss_partial_into(p, t, p.size(), grad);
  EXPECT_LT(max_gradient_error(f, p, grad), 1e-6);
}

TEST(MseLoss, AveragesOverBatchAndColumns) {
  // Doubling the batch with identical rows must not change the loss.
  const Tensor p1 = Tensor::from_rows({{2.0, 0.0}});
  const Tensor t1 = Tensor::from_rows({{0.0, 0.0}});
  const Tensor p2 = Tensor::from_rows({{2.0, 0.0}, {2.0, 0.0}});
  const Tensor t2 = Tensor::from_rows({{0.0, 0.0}, {0.0, 0.0}});
  Tensor grad;
  EXPECT_DOUBLE_EQ(mse_loss_partial_into(p1, t1, p1.size(), grad),
                   mse_loss_partial_into(p2, t2, p2.size(), grad));
}

TEST(MseLoss, ShapeMismatchThrows) {
  const Tensor p(1, 2);
  Tensor grad;
  EXPECT_THROW(mse_loss_partial_into(p, Tensor(2, 1), p.size(), grad),
               ContractViolation);
}

TEST(HuberLoss, QuadraticInside) {
  const Tensor p = Tensor::from_rows({{0.5}});
  const Tensor t = Tensor::from_rows({{0.0}});
  Tensor grad;
  EXPECT_DOUBLE_EQ(huber_loss_partial_into(p, t, 1.0, p.size(), grad), 0.125);
  EXPECT_DOUBLE_EQ(grad(0, 0), 0.5);
}

TEST(HuberLoss, LinearOutside) {
  const Tensor p = Tensor::from_rows({{5.0}});
  const Tensor t = Tensor::from_rows({{0.0}});
  Tensor grad;
  EXPECT_DOUBLE_EQ(huber_loss_partial_into(p, t, 1.0, p.size(), grad),
                   1.0 * (5.0 - 0.5));
  EXPECT_DOUBLE_EQ(grad(0, 0), 1.0);
}

TEST(HuberLoss, ContinuousAtThreshold) {
  const Tensor t = Tensor::from_rows({{0.0}});
  const double delta = 1.0;
  Tensor grad;
  const double below = huber_loss_partial_into(
      Tensor::from_rows({{delta - 1e-9}}), t, delta, 1, grad);
  const double above = huber_loss_partial_into(
      Tensor::from_rows({{delta + 1e-9}}), t, delta, 1, grad);
  EXPECT_NEAR(below, above, 1e-6);
}

TEST(HuberLoss, GradientMatchesFiniteDifference) {
  const Tensor p = Tensor::from_rows({{0.4, -3.0}, {2.5, 0.1}});
  const Tensor t = Tensor::from_rows({{0.0, 0.0}, {0.0, 0.0}});
  auto f = [&](const Tensor& pred) {
    Tensor g;
    return huber_loss_partial_into(pred, t, 1.0, pred.size(), g);
  };
  Tensor grad;
  huber_loss_partial_into(p, t, 1.0, p.size(), grad);
  EXPECT_LT(max_gradient_error(f, p, grad), 1e-5);
}

TEST(HuberLoss, NegativeResidualGradientSign) {
  const Tensor p = Tensor::from_rows({{-5.0}});
  const Tensor t = Tensor::from_rows({{0.0}});
  Tensor grad;
  huber_loss_partial_into(p, t, 1.0, p.size(), grad);
  EXPECT_DOUBLE_EQ(grad(0, 0), -1.0);
}

TEST(HuberLoss, InvalidDeltaThrows) {
  const Tensor p = Tensor::from_rows({{1.0}});
  Tensor grad;
  EXPECT_THROW(huber_loss_partial_into(p, p, 0.0, p.size(), grad),
               ContractViolation);
}

}  // namespace
}  // namespace miras::nn
