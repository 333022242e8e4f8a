#include "nn/tensor.h"

#include <cmath>

#include "common/contracts.h"
#include "nn/kernels.h"

namespace miras::nn {

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Tensor::Tensor(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Tensor Tensor::from_rows(const std::vector<std::vector<double>>& rows) {
  MIRAS_EXPECTS(!rows.empty());
  Tensor t(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    MIRAS_EXPECTS(rows[r].size() == t.cols_);
    for (std::size_t c = 0; c < t.cols_; ++c) t(r, c) = rows[r][c];
  }
  return t;
}

Tensor Tensor::row_vector(const std::vector<double>& values) {
  Tensor t(1, values.size());
  for (std::size_t c = 0; c < values.size(); ++c) t(0, c) = values[c];
  return t;
}

double& Tensor::operator()(std::size_t r, std::size_t c) {
  MIRAS_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Tensor::operator()(std::size_t r, std::size_t c) const {
  MIRAS_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

void Tensor::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Tensor::copy_from(const Tensor& other) {
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_.assign(other.data_.begin(), other.data_.end());
}

std::vector<double> Tensor::row(std::size_t r) const {
  MIRAS_EXPECTS(r < rows_);
  return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
          data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
}

void Tensor::set_row(std::size_t r, const std::vector<double>& values) {
  MIRAS_EXPECTS(r < rows_);
  MIRAS_EXPECTS(values.size() == cols_);
  for (std::size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] = values[c];
}

Tensor Tensor::matmul(const Tensor& other) const {
  Tensor out;
  matmul_into(other, out);
  return out;
}

void Tensor::matmul_into(const Tensor& other, Tensor& out) const {
  MIRAS_EXPECTS(cols_ == other.rows_);
  MIRAS_EXPECTS(&out != this && &out != &other);
  out.resize(rows_, other.cols_);
  kern::gemm(data(), other.data(), out.data(), rows_, cols_, other.cols_);
}

Tensor Tensor::transposed_matmul(const Tensor& other) const {
  Tensor out;
  transposed_matmul_into(other, out);
  return out;
}

void Tensor::transposed_matmul_into(const Tensor& other, Tensor& out,
                                    bool accumulate) const {
  // (this^T) * other where this is (k x m): result is (m x n).
  MIRAS_EXPECTS(rows_ == other.rows_);
  MIRAS_EXPECTS(&out != this && &out != &other);
  const std::size_t k = rows_, m = cols_, n = other.cols_;
  if (accumulate) {
    MIRAS_EXPECTS(out.rows_ == m && out.cols_ == n);
  } else {
    out.resize(m, n);
  }
  kern::gemm_tn(data(), other.data(), out.data(), m, k, n, accumulate);
}

Tensor Tensor::matmul_transposed(const Tensor& other) const {
  Tensor out;
  matmul_transposed_into(other, out);
  return out;
}

void Tensor::matmul_transposed_into(const Tensor& other, Tensor& out) const {
  // this (m x k) * other^T where other is (n x k): result is (m x n).
  MIRAS_EXPECTS(cols_ == other.cols_);
  MIRAS_EXPECTS(&out != this && &out != &other);
  out.resize(rows_, other.rows_);
  kern::gemm_nt(data(), other.data(), out.data(), rows_, cols_, other.rows_);
}

Tensor Tensor::transposed() const {
  Tensor out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

Tensor& Tensor::operator+=(const Tensor& other) {
  MIRAS_EXPECTS(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  MIRAS_EXPECTS(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

Tensor Tensor::operator+(const Tensor& other) const {
  Tensor out = *this;
  out += other;
  return out;
}

Tensor Tensor::operator-(const Tensor& other) const {
  Tensor out = *this;
  out -= other;
  return out;
}

Tensor Tensor::operator*(double scalar) const {
  Tensor out = *this;
  out *= scalar;
  return out;
}

Tensor Tensor::hadamard(const Tensor& other) const {
  MIRAS_EXPECTS(same_shape(other));
  Tensor out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] *= other.data_[i];
  return out;
}

void Tensor::add_row_broadcast(const Tensor& bias) {
  MIRAS_EXPECTS(bias.rows_ == 1 && bias.cols_ == cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] += bias.data_[c];
}

Tensor Tensor::column_sums() const {
  Tensor out;
  column_sums_into(out);
  return out;
}

void Tensor::column_sums_into(Tensor& out, bool accumulate) const {
  MIRAS_EXPECTS(&out != this);
  if (accumulate) {
    MIRAS_EXPECTS(out.rows_ == 1 && out.cols_ == cols_);
  } else {
    out.resize(1, cols_);
    out.fill(0.0);
  }
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      out.data_[c] += data_[r * cols_ + c];
}

double Tensor::sum() const {
  double acc = 0.0;
  for (const double x : data_) acc += x;
  return acc;
}

double Tensor::norm() const {
  double acc = 0.0;
  for (const double x : data_) acc += x * x;
  return std::sqrt(acc);
}

void Tensor::fill(double value) {
  for (double& x : data_) x = value;
}

}  // namespace miras::nn
