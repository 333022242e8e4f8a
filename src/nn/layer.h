// Fully connected layer with explicit forward/backward passes.
//
// Parameters are owned by the layer; gradients are stored alongside and are
// consumed by an Optimizer. Layers cache the last forward pass's input and
// activations so backward() can be called immediately after forward().
//
// The cache tensors and the backward scratch buffer are reused across
// calls, so a steady-state forward/backward cycle at a fixed batch size
// performs no heap allocations.
#pragma once

#include <cstddef>

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

  /// Computes activate(x * W + b) for a batch (rows = samples). Caches
  /// intermediates for backward(); the returned reference stays valid until
  /// the next forward() call. `x` must not alias the cache (pass a distinct
  /// tensor, e.g. the previous layer's output).
  const Tensor& forward(const Tensor& x);

  /// Same as forward() but does not touch the cache; safe for inference on
  /// target networks while a training pass is in flight.
  Tensor forward_const(const Tensor& x) const;

  /// Cache-free inference writing into `out` (resized to x.rows() x
  /// out_dim). `out` must not alias `x`, the weights, or the bias.
  void forward_into(const Tensor& x, Tensor& out) const;

  /// Given dL/d(output), accumulates dL/dW and dL/db into the gradient
  /// buffers and returns dL/d(input). Must follow a forward() call with the
  /// same batch.
  Tensor backward(const Tensor& grad_output);

  /// backward() writing dL/d(input) into `grad_input` (a caller-owned
  /// buffer, resized to the batch shape). `grad_input` must not alias
  /// `grad_output` or any layer state.
  void backward_into(const Tensor& grad_output, Tensor& grad_input);

  /// Re-entrant training forward: like forward() but the caches live in
  /// caller-owned buffers, so concurrent row blocks can pass through one
  /// layer at once. Writes the pre-activations into `pre` and
  /// activate(pre) into `post` (both resized). Row for row bit-identical
  /// to forward() on the same rows (kernel invariant, tensor.h). `x`,
  /// `pre`, and `post` must be three distinct tensors.
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

  /// Zeroes the gradient accumulators.
  void zero_grad();

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
  Tensor weight_grad_;  // accumulators, same shapes
  Tensor bias_grad_;

  // Forward-pass cache (buffers reused across calls).
  Tensor last_input_;
  Tensor last_pre_;
  Tensor last_post_;

  // Backward-pass scratch (dL/d(pre-activation)).
  Tensor grad_pre_;
};

}  // namespace miras::nn
