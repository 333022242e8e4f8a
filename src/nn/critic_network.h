// DDPG critic Q(s, a) with late action injection.
//
// Following the paper (§VI-A3), the critic mirrors the actor's MLP but the
// action is inserted at the *second* layer: the state passes through layer 1
// alone, then [h1 || a] feeds layer 2, and the final layer emits a scalar
// Q-value. backward_shard() yields the parameter gradients (the TD update)
// and dQ/da, the deterministic-policy-gradient signal fed back through the
// actor.
//
// Like Network, training runs re-entrantly through caller-owned TrainPass
// buffers and the inference hot path through a caller-owned Workspace; the
// const `predict` / `predict_one` remain allocating and concurrency-safe.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "nn/layer.h"
#include "nn/train_shards.h"
#include "nn/workspace.h"

namespace miras::nn {

/// Which gradients CriticNetwork::backward_shard produces.
enum class CriticGrads { kAll, kParameters, kActions };

struct CriticSpec {
  std::size_t state_dim = 0;
  std::size_t action_dim = 0;
  /// Hidden widths; must have at least 2 entries (action joins at index 1).
  std::vector<std::size_t> hidden_dims;
  Activation hidden_activation = Activation::kRelu;
};

class CriticNetwork {
 public:
  CriticNetwork() = default;
  CriticNetwork(const CriticSpec& spec, Rng& rng);

  /// Assembles a critic from pre-built layers (deserialisation). Dimensions
  /// are inferred: state_dim = layers[0].in_dim, action_dim =
  /// layers[1].in_dim - layers[0].out_dim.
  explicit CriticNetwork(std::vector<DenseLayer> layers);

  std::size_t state_dim() const { return state_dim_; }
  std::size_t action_dim() const { return action_dim_; }

  /// Batched Q-values: states (B x S), actions (B x A) -> (B x 1), through
  /// predict_batch on a fresh workspace. Allocates; safe to call
  /// concurrently.
  Tensor predict(const Tensor& states, const Tensor& actions) const;
  double predict_one(const std::vector<double>& state,
                     const std::vector<double>& action) const;

  /// Inference through workspace buffers (ws.a, ws.b, ws.concat): zero
  /// steady-state allocations. `out` must not alias the inputs or the
  /// workspace tensors.
  void predict_batch(const Tensor& states, const Tensor& actions,
                     Workspace& ws, Tensor& out) const;

  /// Re-entrant training forward for one gradient block: all caches live in
  /// `pass` (sized by prepare_pass with this critic's layers), so concurrent
  /// blocks can share one critic. Returns the Q column (pass.post.back()),
  /// bit-identical to predict_batch() on the same rows.
  const Tensor& forward_shard(const Tensor& states, const Tensor& actions,
                              TrainPass& pass) const;

  /// Re-entrant backward matching the last forward_shard on `pass`. `what`
  /// picks the outputs: kParameters writes the block's parameter gradients
  /// into pass.grads (the TD update), kActions writes dQ/da into
  /// pass.grad_actions and leaves pass.grads untouched (the critic as the
  /// actor's conduit), kAll does both. Work only the skipped output needs
  /// is skipped; dQ/ds is never computed (nothing consumes it). `grad_q`
  /// must not alias any pass tensor. Touches no critic state.
  void backward_shard(const Tensor& states, const Tensor& actions,
                      const Tensor& grad_q, TrainPass& pass,
                      CriticGrads what = CriticGrads::kAll) const;

  /// Fused tail of one sharded update: reduce passes[0..count), clip the
  /// global gradient norm to `max_norm`, one Adam step with `fold`'s decay
  /// and target update in the same walk (sharded_adam_step,
  /// train_shards.h). Returns the pre-clip norm. The reduction overwrites
  /// the layers' gradient buffers, so callers never zero them.
  double sharded_update(const std::vector<TrainPass>& passes,
                        std::size_t count, double max_norm,
                        AdamOptimizer& optimizer, const StepFold& fold = {});
  std::size_t parameter_count() const;
  std::vector<double> get_parameters() const;
  void set_parameters(const std::vector<double>& flat);

  std::vector<DenseLayer>& layers() { return layers_; }
  const std::vector<DenseLayer>& layers() const { return layers_; }

 private:
  /// out = [a || b] column-wise; out must not alias a or b.
  static void concat_cols_into(const Tensor& a, const Tensor& b, Tensor& out);

  std::size_t state_dim_ = 0;
  std::size_t action_dim_ = 0;
  // layers_[0]: state -> h1; layers_[1]: [h1 || a] -> h2; then sequential;
  // final layer emits the scalar Q.
  std::vector<DenseLayer> layers_;
};

}  // namespace miras::nn
