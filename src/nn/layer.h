// Fully connected layer. The layer owns its parameters and the reduced
// gradient buffers the optimizer reads; it holds no per-pass state. Training
// forward and backward are const and re-entrant: the caches live in
// caller-owned tensors (a TrainPass, train_shards.h), so concurrent gradient
// blocks can pass through one layer at once.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "nn/activation.h"
#include "nn/tensor.h"

namespace miras::nn {

/// Caller-owned gradient block for one layer: the unit of the sharded
/// training path (train_shards.h), where every gradient block writes its
/// own LayerGrad and the blocks are reduced in fixed order into the layer's
/// own weight_grad()/bias_grad() buffers. Shapes mirror the layer's
/// parameters. Cache-line aligned so adjacent blocks' gradients never share
/// a line when blocks run on different cores.
struct alignas(64) LayerGrad {
  Tensor weight;  // in_dim x out_dim
  Tensor bias;    // 1 x out_dim
};

class DenseLayer {
 public:
  /// Creates a (in_dim -> out_dim) layer. Weights use He initialisation for
  /// ReLU and Xavier/Glorot otherwise; biases start at zero.
  DenseLayer(std::size_t in_dim, std::size_t out_dim, Activation activation,
             Rng& rng);

  /// Reconstructs a layer from explicit parameters (deserialisation).
  /// `weights` is (in_dim x out_dim); `bias` is (1 x out_dim).
  DenseLayer(Tensor weights, Tensor bias, Activation activation);

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }
  Activation activation() const { return activation_; }

  /// Inference: activate(x * W + b) for a batch (rows = samples) written
  /// into `out` (resized to x.rows() x out_dim). `out` must not alias `x`,
  /// the weights, or the bias.
  void forward_into(const Tensor& x, Tensor& out) const;

  /// Training forward: writes the pre-activations into `pre` and
  /// activate(pre) into `post` (both resized). `post` is bit-identical to
  /// forward_into on the same rows, and row for row independent of the
  /// other rows (kernel invariant, tensor.h). `x`, `pre`, and `post` must
  /// be three distinct tensors.
  void forward_shard(const Tensor& x, Tensor& pre, Tensor& post) const;

  /// dL/d(pre-activation) of the top layer from dL/d(output): `grad_output`
  /// itself for identity, otherwise activation_backward_into `scratch`
  /// (which must not alias the other arguments).
  const Tensor& output_grad_pre(const Tensor& pre, const Tensor& post,
                                const Tensor& grad_output,
                                Tensor& scratch) const;

  /// Parameter gradients of one gradient block, given the layer input `x`
  /// and dL/d(pre-activation) `grad_pre`: grad.weight = xᵀ · grad_pre and
  /// grad.bias = the column sums of grad_pre. Both are written, not
  /// accumulated, so `grad` needs no zeroing. Touches no layer state.
  void param_grad_shard(const Tensor& x, const Tensor& grad_pre,
                        LayerGrad& grad) const;

  /// dL/d(pre-activation of the layer below) for the input columns
  /// [begin, end): (grad_pre · W[begin:end]ᵀ) through `below`'s activation,
  /// whose forward left `below_pre` / `below_post` (those columns only).
  /// ReLU and identity fold into the kernel epilogue; other activations
  /// stage the product in `scratch` and run activation_backward_into.
  /// `out` (resized) must not alias `grad_pre`, `scratch` or the caches.
  /// Touches no layer state.
  void input_grad_shard(const Tensor& grad_pre, std::size_t begin,
                        std::size_t end, Activation below,
                        const Tensor& below_pre, const Tensor& below_post,
                        Tensor& scratch, Tensor& out) const;

  /// The same product with no activation below: dL/d(input columns
  /// [begin, end)).
  void input_grad_shard(const Tensor& grad_pre, std::size_t begin,
                        std::size_t end, Tensor& out) const;

  Tensor& weights() { return weights_; }
  const Tensor& weights() const { return weights_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }
  Tensor& weight_grad() { return weight_grad_; }
  const Tensor& weight_grad() const { return weight_grad_; }
  Tensor& bias_grad() { return bias_grad_; }
  const Tensor& bias_grad() const { return bias_grad_; }

  /// Total number of scalar parameters (weights + biases).
  std::size_t parameter_count() const;

 private:
  /// post = act(x · W + b) and, when `pre` is set, pre = x · W + b.
  void affine_into(const Tensor& x, Tensor* pre, Tensor& post) const;

  /// out = grad_pre · W[begin:end]ᵀ, masked by relu_mask > 0 when set.
  void input_grad_into(const Tensor& grad_pre, std::size_t begin,
                       std::size_t end, const double* relu_mask,
                       Tensor& out) const;

  std::size_t in_dim_;
  std::size_t out_dim_;
  Activation activation_;
  Tensor weights_;      // in_dim x out_dim
  Tensor bias_;         // 1 x out_dim
  Tensor weight_grad_;  // reduced gradients, same shapes
  Tensor bias_grad_;
};

/// The flat parameter walks shared by Network and CriticNetwork. The flat
/// order is layer by layer, weights then bias.
std::size_t parameter_count(const std::vector<DenseLayer>& layers);
std::vector<double> get_parameters(const std::vector<DenseLayer>& layers);
void set_parameters(std::vector<DenseLayer>& layers,
                    const std::vector<double>& flat);

/// Polyak update: theta <- tau * source.theta + (1 - tau) * theta, layer by
/// layer. Requires identical architecture.
void soft_update(std::vector<DenseLayer>& layers,
                 const std::vector<DenseLayer>& source, double tau);

}  // namespace miras::nn
