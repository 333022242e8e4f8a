// Dense row-major 2-D tensor (matrix) with the operations the network stack
// needs: the three matmul shapes (via nn/kernels.h), in-place accumulation
// and column sums. Batches are rows: a forward pass over a batch of B inputs
// of width D is a (B x D) Tensor.
//
// Every product writes into a caller-owned output tensor, reusing its heap
// buffer when the capacity suffices. The hot paths (DDPG updates, synthetic
// rollouts) route all intermediates through preallocated workspaces, so
// steady-state inference and training allocate nothing.
//
// Kernel invariant: every output element accumulates its contributions in
// ascending reduction-index order, independent of the other rows in the
// batch. This is what makes batched forward passes bit-identical to
// row-at-a-time passes (see DESIGN.md §5) — blocked kernels may reorder
// *across* output elements but never within one.
//
// The three products are thin wrappers over ONE seam, nn/kernels.h:
// matmul_into -> kern::gemm (C = A·B), transposed_matmul_into ->
// kern::gemm_tn (C = Aᵀ·B, dW), matmul_transposed_into -> kern::gemm_nt
// (C = A·Bᵀ, dX). The seam vectorises across output columns only, never
// across the reduction, uses no FMA, and picks its vector width once from
// CPUID with no knob — every width gives the same bits.
#pragma once

#include <cstddef>
#include <vector>

namespace miras::nn {

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialised (rows x cols) tensor.
  Tensor(std::size_t rows, std::size_t cols);

  /// Filled with `value`.
  Tensor(std::size_t rows, std::size_t cols, double value);

  /// From nested initialiser data; all rows must have equal length.
  static Tensor from_rows(const std::vector<std::vector<double>>& rows);

  /// A 1 x n row vector view of `values`.
  static Tensor row_vector(const std::vector<double>& values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Reshapes to (rows x cols) without initialising the elements; existing
  /// heap capacity is reused, so repeated resizes to previously seen sizes
  /// never allocate. Element values are unspecified afterwards — callers
  /// must fill or overwrite.
  void resize(std::size_t rows, std::size_t cols);

  /// Copies row r out as a vector.
  std::vector<double> row(std::size_t r) const;

  /// Overwrites row r. `values.size()` must equal cols().
  void set_row(std::size_t r, const std::vector<double>& values);

  /// this (m x k) * other (k x n) -> `out` (resized to m x n; prior
  /// contents dropped). `out` must not alias this or `other`.
  void matmul_into(const Tensor& other, Tensor& out) const;

  /// this^T (k x m -> m x k) * other (k x n) -> `out` (resized to m x n),
  /// without forming the transpose. Used for weight gradients: dW = X^T * dY.
  void transposed_matmul_into(const Tensor& other, Tensor& out) const;

  /// this (m x k) * other^T (n x k -> k x n) -> `out` (resized to m x n).
  /// Used for input gradients: dX = dY * W^T.
  void matmul_transposed_into(const Tensor& other, Tensor& out) const;

  Tensor& operator+=(const Tensor& other);
  Tensor& operator*=(double scalar);

  /// Sums all rows into `out` (resized to 1 x cols; for bias gradients).
  void column_sums_into(Tensor& out) const;

  /// Overwrites every element with `value`.
  void fill(double value);

  bool same_shape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace miras::nn
