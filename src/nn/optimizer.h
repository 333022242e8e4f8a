// Adam over a network's layers. The moments are allocated on the first
// step and keyed by layer index, so one optimiser instance must stay paired
// with one network.
//
// step_scaled() reads the layers' own weight_grad()/bias_grad() buffers,
// which sharded_adam_step (train_shards.h) fills by reducing the per-block
// gradients of one sharded update.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "nn/kernels.h"
#include "nn/layer.h"
#include "persist/binary_io.h"

namespace miras::nn {

/// What one optimiser step folds into its walk over each parameter, after
/// the parameter's Adam update (element order in kern::AdamArgs).
struct StepFold {
  /// The last layer's parameters are multiplied by this after their step:
  /// decoupled decay (the DDPG actor's logit decay). 1.0 leaves them as
  /// they are.
  double head_keep = 1.0;
  /// When set, target <- tau * stepped + (1 - tau) * target for every
  /// parameter right after its step: the Polyak update of a target network
  /// with the same architecture.
  std::vector<DenseLayer>* target = nullptr;
  double tau = 0.0;
};

/// A gradient norm that is not finite: the update was refused before any
/// weight, moment or target parameter changed.
class NonFiniteGradient : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Adam (Kingma & Ba 2015) with bias correction.
class AdamOptimizer {
 public:
  explicit AdamOptimizer(double learning_rate, double beta1 = 0.9,
                         double beta2 = 0.999, double epsilon = 1e-8);

  /// One Adam update from the layers' gradient buffers, every gradient
  /// scaled by `scale` on the fly — the fused form of "clip then step" used
  /// by sharded_adam_step (train_shards.h) — with `fold` applied to each
  /// parameter right after its step. scale == 1.0 reads the gradients
  /// untouched. One walk per parameter tensor, at `isa` (kern::adam). Does
  /// not modify the gradient buffers.
  void step_scaled(std::vector<DenseLayer>& layers, double scale,
                   const StepFold& fold = {},
                   kern::Isa isa = kern::selected_isa());

  /// Snapshot/restore of the mutable optimiser state (step counter and
  /// first/second moments) for crash-resume. Hyperparameters are construction
  /// arguments and are NOT serialised — pair a restored state with an
  /// optimiser built from the same config. restore_state validates the
  /// saved moments against `layers`, the network this optimiser will step:
  /// a non-empty state (saved after at least one step) must hold one moment
  /// per layer parameter tensor with that tensor's shape, otherwise it
  /// throws std::runtime_error naming the first mismatching layer. An empty
  /// state (saved before any step) is valid for any network.
  void save_state(persist::BinaryWriter& out) const;
  void restore_state(persist::BinaryReader& in,
                     const std::vector<DenseLayer>& layers);

 private:
  double learning_rate_;
  double beta1_;
  double beta2_;
  double epsilon_;
  std::size_t t_ = 0;
  std::vector<Tensor> weight_m_, weight_v_;
  std::vector<Tensor> bias_m_, bias_v_;
};

}  // namespace miras::nn
