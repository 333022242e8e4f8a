#include "nn/tensor.h"

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

void Tensor::matmul_into(const Tensor& other, Tensor& out) const {
  MIRAS_EXPECTS(cols_ == other.rows_);
  MIRAS_EXPECTS(&out != this && &out != &other);
  out.resize(rows_, other.cols_);
  kern::gemm(data(), other.data(), out.data(), rows_, cols_, other.cols_);
}

void Tensor::transposed_matmul_into(const Tensor& other, Tensor& out) const {
  // (this^T) * other where this is (k x m): result is (m x n).
  MIRAS_EXPECTS(rows_ == other.rows_);
  MIRAS_EXPECTS(&out != this && &out != &other);
  out.resize(cols_, other.cols_);
  kern::gemm_tn(data(), other.data(), out.data(), cols_, rows_, other.cols_);
}

void Tensor::matmul_transposed_into(const Tensor& other, Tensor& out) const {
  // this (m x k) * other^T where other is (n x k): result is (m x n).
  MIRAS_EXPECTS(cols_ == other.cols_);
  MIRAS_EXPECTS(&out != this && &out != &other);
  out.resize(rows_, other.rows_);
  kern::gemm_nt(data(), other.data(), out.data(), rows_, cols_, other.rows_);
}

Tensor& Tensor::operator+=(const Tensor& other) {
  MIRAS_EXPECTS(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

void Tensor::column_sums_into(Tensor& out) const {
  MIRAS_EXPECTS(&out != this);
  out.resize(1, cols_);
  out.fill(0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      out.data_[c] += data_[r * cols_ + c];
}

void Tensor::fill(double value) {
  for (double& x : data_) x = value;
}

}  // namespace miras::nn
