// Snapshot-isolated serving of a trained actor.
//
// Training and serving have opposite lifetimes: the agent keeps mutating its
// networks, while a serving endpoint must answer every in-flight request
// from ONE coherent set of weights. The bridge is the ActorSnapshot — an
// immutable, self-contained copy of the greedy decision path (clean actor,
// resolved state normaliser, weights→allocation config) — published through
// an ActorServable via RCU-style shared_ptr swap:
//
//   - publish(snapshot) installs a new version with one pointer swap under
//     a tiny mutex held for the swap alone (never during inference);
//   - acquire() hands any thread a shared_ptr pin on the current version;
//     requests already pinned to the old version finish on it bit-exactly
//     (no torn reads, no drops), then the old snapshot frees itself when
//     the last pin drops.
//
// The publication point is a mutex-guarded shared_ptr rather than
// std::atomic<std::shared_ptr>: acquire() runs at most once per *batch*
// (not per request) — and with refresh(), multi-lane serving skips even
// that unless a publish actually landed — so an uncontended lock is noise
// next to the forward pass, and
// libstdc++'s lock-free _Sp_atomic trips TSan (its _M_ptr is a plain
// member behind a lock-bit protocol the tool cannot model) — the CI TSan
// job runs these suites.
//
// Decision parity contract: for the same agent state,
//   ActorSnapshot::decide(s)            == DdpgAgent::act_greedy(s) and
//   ActorSnapshot::decide_allocation(s) == DdpgAgent::act_allocation_greedy(s)
// bit for bit — the snapshot resolves the normaliser to the same affine map
// BehaviorSnapshot does, and both paths normalise and map weights through
// the same functions (rl::apply_state_normalizer,
// rl::allocation_with_minimum).
//
// Non-finite observations are refused: every decision entry point throws
// std::invalid_argument on a NaN or ±Inf state before any work or
// admission, an error distinct from the std::runtime_error of a stopped
// BatchServer. Left through, log1p(max(NaN, 0)) is NaN and the request
// would come back as NaN weights with no error.
//
// Persistence: save_servable()/load_servable() wrap rl::ServableExport in a
// single-section persist checkpoint container. MirasAgent::save_checkpoint
// writes the same "servable" section into full training checkpoints, so
// load_servable() opens either file kind.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/network.h"
#include "nn/workspace.h"
#include "rl/action.h"
#include "rl/ddpg.h"

namespace miras::serve {

/// Per-thread (or per-request-slot) inference scratch. decide() through a
/// scratch is allocation-free at steady state; the scratch must not be used
/// from two threads at once.
struct DecisionScratch {
  nn::Workspace ws;
  std::vector<double> norm;
};

/// Immutable copy of everything the greedy decision path needs. Never
/// mutated after construction, so any number of threads may decide()
/// through one snapshot concurrently (each with its own scratch).
struct ActorSnapshot {
  nn::Network policy;  // clean actor
  /// Resolved affine normaliser y = (f - shift) / scale over the (possibly
  /// log1p'd) state features; same resolution as rl::BehaviorSnapshot.
  std::vector<double> shift;
  std::vector<double> scale;
  bool log_state_features = true;
  int consumer_budget = 0;
  std::size_t action_dim = 0;
  rl::RoundingMode rounding = rl::RoundingMode::kFloor;
  int min_consumers_per_type = 1;
  /// Assigned by ActorServable::publish(); 0 until first published.
  std::uint64_t version = 0;

  std::size_t state_dim() const { return shift.size(); }

  /// Captures the greedy decision path of a (possibly still-training) agent.
  /// Read-only on the agent: callable on a const reference, no casts.
  static ActorSnapshot from_agent(const rl::DdpgAgent& agent);

  /// Builds from the serialised export payload (see load_servable).
  static ActorSnapshot from_export(const rl::ServableExport& exported);

  /// Normalises `state` (length state_dim()) into `out` (same length,
  /// caller-sized). Bit-identical to DdpgAgent::normalize_state.
  void normalize_into(const double* state, double* out) const;

  /// Greedy simplex weights for `state`; allocation-free given a scratch.
  /// Throws std::invalid_argument on a non-finite state.
  void decide(const std::vector<double>& state, DecisionScratch& scratch,
              std::vector<double>& weights_out) const;

  /// decide() mapped to an integer allocation under the budget; equals
  /// DdpgAgent::act_allocation_greedy bit for bit. Allocates (integer
  /// allocations are not on the hot batched path).
  std::vector<int> decide_allocation(const std::vector<double>& state,
                                     DecisionScratch& scratch) const;
};

/// Throws std::invalid_argument unless every entry of `state` is finite.
void require_finite_state(const std::vector<double>& state);

/// Publication point between a trainer (or checkpoint loader) and any
/// number of serving threads. One writer publishes; readers acquire pins.
class ActorServable {
 public:
  /// Installs the first snapshot (becomes version 1).
  explicit ActorServable(ActorSnapshot snapshot);

  /// Swaps in a new snapshot (hot-swap). The snapshot must have
  /// the same state/action dimensions as the initial one — in-flight
  /// requests may land on either side of the swap and both must fit the
  /// same request shape. Returns the assigned version (monotonic from 1).
  /// Safe to call while decide()/acquire() run on other threads; requests
  /// pinned to the previous snapshot finish on it.
  std::uint64_t publish(ActorSnapshot snapshot);

  /// Pins the current snapshot. The returned pointer (and everything it
  /// references) stays valid and immutable for as long as it is held.
  std::shared_ptr<const ActorSnapshot> acquire() const;

  /// Re-pins `pin` to the current snapshot only if publication moved (or
  /// `pin` is empty); otherwise leaves it untouched WITHOUT taking the
  /// swap mutex. This is the per-pass entry point for multi-lane serving:
  /// N lane workers each refresh a cached pin once per pass, so at steady
  /// state (no swap in flight) the shared mutex sees zero acquires per
  /// pass instead of N. The version probe is a relaxed-cost atomic load;
  /// during a publish the probe may run ahead of the pointer swap, in
  /// which case the refresh lands on the outgoing snapshot and the NEXT
  /// refresh picks up the new one — under a single publisher (the
  /// documented write pattern) the pinned version is therefore monotone
  /// nondecreasing across successive refreshes of the same pin.
  void refresh(std::shared_ptr<const ActorSnapshot>& pin) const;

  /// Convenience single-shot decision through the current snapshot.
  /// Returns the version that served the request. Throws
  /// std::invalid_argument on a non-finite state.
  std::uint64_t decide(const std::vector<double>& state,
                       DecisionScratch& scratch,
                       std::vector<double>& weights_out) const;

  /// Version of the most recently published snapshot.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  std::size_t state_dim() const { return state_dim_; }
  std::size_t action_dim() const { return action_dim_; }

 private:
  mutable std::mutex current_mutex_;  // guards current_ (pointer swap only)
  std::shared_ptr<const ActorSnapshot> current_;
  std::atomic<std::uint64_t> version_{0};
  std::size_t state_dim_ = 0;
  std::size_t action_dim_ = 0;
};

/// Writes `snapshot` as a standalone servable file: a persist checkpoint
/// container with the single "servable" section (atomic write-to-temp +
/// fsync + rename, CRC-guarded like every container).
void save_servable(const ActorSnapshot& snapshot, const std::string& path);

/// Loads the "servable" section from `path` — a standalone servable file or
/// a full MirasAgent training checkpoint (both carry the section). Throws
/// std::runtime_error if the file is malformed or has no servable section
/// (e.g. a pre-serving-era training checkpoint).
ActorSnapshot load_servable(const std::string& path);

}  // namespace miras::serve
