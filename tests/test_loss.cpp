#include "nn/loss.h"

#include <gtest/gtest.h>

#include "common/contracts.h"
#include "nn/grad_check.h"

namespace miras::nn {
namespace {

TEST(MseLoss, ZeroWhenEqual) {
  const Tensor p = Tensor::from_rows({{1.0, 2.0}});
  const LossResult result = mse_loss(p, p);
  EXPECT_DOUBLE_EQ(result.value, 0.0);
  for (std::size_t i = 0; i < result.grad.size(); ++i)
    EXPECT_DOUBLE_EQ(result.grad.data()[i], 0.0);
}

TEST(MseLoss, KnownValue) {
  const Tensor p = Tensor::from_rows({{2.0, 0.0}});
  const Tensor t = Tensor::from_rows({{0.0, 0.0}});
  // 0.5 * (4 + 0) / 2 elements = 1.0
  EXPECT_DOUBLE_EQ(mse_loss(p, t).value, 1.0);
}

TEST(MseLoss, GradientMatchesFiniteDifference) {
  const Tensor p = Tensor::from_rows({{1.5, -2.0}, {0.3, 0.9}});
  const Tensor t = Tensor::from_rows({{1.0, 1.0}, {0.0, 2.0}});
  auto f = [&](const Tensor& pred) { return mse_loss(pred, t).value; };
  EXPECT_LT(max_gradient_error(f, p, mse_loss(p, t).grad), 1e-6);
}

TEST(MseLoss, AveragesOverBatchAndColumns) {
  // Doubling the batch with identical rows must not change the loss.
  const Tensor p1 = Tensor::from_rows({{2.0, 0.0}});
  const Tensor t1 = Tensor::from_rows({{0.0, 0.0}});
  const Tensor p2 = Tensor::from_rows({{2.0, 0.0}, {2.0, 0.0}});
  const Tensor t2 = Tensor::from_rows({{0.0, 0.0}, {0.0, 0.0}});
  EXPECT_DOUBLE_EQ(mse_loss(p1, t1).value, mse_loss(p2, t2).value);
}

TEST(MseLoss, ShapeMismatchThrows) {
  EXPECT_THROW(mse_loss(Tensor(1, 2), Tensor(2, 1)), ContractViolation);
}

TEST(HuberLoss, QuadraticInside) {
  const Tensor p = Tensor::from_rows({{0.5}});
  const Tensor t = Tensor::from_rows({{0.0}});
  EXPECT_DOUBLE_EQ(huber_loss(p, t, 1.0).value, 0.125);
  EXPECT_DOUBLE_EQ(huber_loss(p, t, 1.0).grad(0, 0), 0.5);
}

TEST(HuberLoss, LinearOutside) {
  const Tensor p = Tensor::from_rows({{5.0}});
  const Tensor t = Tensor::from_rows({{0.0}});
  const LossResult result = huber_loss(p, t, 1.0);
  EXPECT_DOUBLE_EQ(result.value, 1.0 * (5.0 - 0.5));
  EXPECT_DOUBLE_EQ(result.grad(0, 0), 1.0);
}

TEST(HuberLoss, ContinuousAtThreshold) {
  const Tensor t = Tensor::from_rows({{0.0}});
  const double delta = 1.0;
  const double below =
      huber_loss(Tensor::from_rows({{delta - 1e-9}}), t, delta).value;
  const double above =
      huber_loss(Tensor::from_rows({{delta + 1e-9}}), t, delta).value;
  EXPECT_NEAR(below, above, 1e-6);
}

TEST(HuberLoss, GradientMatchesFiniteDifference) {
  const Tensor p = Tensor::from_rows({{0.4, -3.0}, {2.5, 0.1}});
  const Tensor t = Tensor::from_rows({{0.0, 0.0}, {0.0, 0.0}});
  auto f = [&](const Tensor& pred) { return huber_loss(pred, t, 1.0).value; };
  EXPECT_LT(max_gradient_error(f, p, huber_loss(p, t, 1.0).grad), 1e-5);
}

TEST(HuberLoss, NegativeResidualGradientSign) {
  const Tensor p = Tensor::from_rows({{-5.0}});
  const Tensor t = Tensor::from_rows({{0.0}});
  EXPECT_DOUBLE_EQ(huber_loss(p, t, 1.0).grad(0, 0), -1.0);
}

TEST(HuberLoss, InvalidDeltaThrows) {
  const Tensor p = Tensor::from_rows({{1.0}});
  EXPECT_THROW(huber_loss(p, p, 0.0), ContractViolation);
}

}  // namespace
}  // namespace miras::nn
