#include "serve/servable.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/contracts.h"
#include "persist/checkpoint.h"

namespace miras::serve {

ActorSnapshot ActorSnapshot::from_agent(const rl::DdpgAgent& agent) {
  return from_export(rl::servable_export(agent));
}

ActorSnapshot ActorSnapshot::from_export(const rl::ServableExport& exported) {
  ActorSnapshot snap;
  snap.policy = exported.behavior.policy;
  snap.shift = exported.behavior.shift;
  snap.scale = exported.behavior.scale;
  snap.log_state_features = exported.behavior.log_state_features;
  snap.consumer_budget = exported.behavior.consumer_budget;
  snap.action_dim = exported.behavior.action_dim;
  snap.rounding = exported.rounding;
  snap.min_consumers_per_type = exported.min_consumers_per_type;
  MIRAS_EXPECTS(snap.shift.size() == snap.scale.size());
  MIRAS_EXPECTS(snap.policy.input_dim() == snap.shift.size());
  MIRAS_EXPECTS(snap.policy.output_dim() == snap.action_dim);
  return snap;
}

void ActorSnapshot::normalize_into(const double* state, double* out) const {
  rl::apply_state_normalizer(state, shift, scale, log_state_features, out);
}

void require_finite_state(const std::vector<double>& state) {
  for (std::size_t j = 0; j < state.size(); ++j) {
    if (!std::isfinite(state[j]))
      throw std::invalid_argument(
          "serve: non-finite observation at state index " +
          std::to_string(j));
  }
}

void ActorSnapshot::decide(const std::vector<double>& state,
                           DecisionScratch& scratch,
                           std::vector<double>& weights_out) const {
  MIRAS_EXPECTS(state.size() == state_dim());
  require_finite_state(state);
  scratch.norm.resize(state.size());
  normalize_into(state.data(), scratch.norm.data());
  policy.predict_one(scratch.norm, scratch.ws, weights_out);
}

std::vector<int> ActorSnapshot::decide_allocation(
    const std::vector<double>& state, DecisionScratch& scratch) const {
  std::vector<double> weights;
  decide(state, scratch, weights);
  return rl::allocation_with_minimum(weights, consumer_budget, rounding,
                                     min_consumers_per_type);
}

ActorServable::ActorServable(ActorSnapshot snapshot) {
  state_dim_ = snapshot.state_dim();
  action_dim_ = snapshot.action_dim;
  MIRAS_EXPECTS(state_dim_ > 0 && action_dim_ > 0);
  publish(std::move(snapshot));
}

std::uint64_t ActorServable::publish(ActorSnapshot snapshot) {
  MIRAS_EXPECTS(snapshot.state_dim() == state_dim_ &&
                snapshot.action_dim == action_dim_);
  const std::uint64_t v =
      version_.fetch_add(1, std::memory_order_acq_rel) + 1;
  snapshot.version = v;
  // Build the snapshot copy outside the lock; hold it for the swap alone.
  // The displaced snapshot is destroyed after unlock (when `old` dies), so
  // readers never wait on a network teardown.
  std::shared_ptr<const ActorSnapshot> fresh =
      std::make_shared<const ActorSnapshot>(std::move(snapshot));
  std::shared_ptr<const ActorSnapshot> old;
  {
    const std::lock_guard<std::mutex> lock(current_mutex_);
    old = std::move(current_);
    current_ = std::move(fresh);
  }
  return v;
}

std::shared_ptr<const ActorSnapshot> ActorServable::acquire() const {
  const std::lock_guard<std::mutex> lock(current_mutex_);
  return current_;
}

void ActorServable::refresh(std::shared_ptr<const ActorSnapshot>& pin) const {
  const std::uint64_t published = version_.load(std::memory_order_acquire);
  if (pin && pin->version == published) return;
  pin = acquire();
}

std::uint64_t ActorServable::decide(const std::vector<double>& state,
                                    DecisionScratch& scratch,
                                    std::vector<double>& weights_out) const {
  const std::shared_ptr<const ActorSnapshot> snap = acquire();
  snap->decide(state, scratch, weights_out);
  return snap->version;
}

void save_servable(const ActorSnapshot& snapshot, const std::string& path) {
  // Re-encode through the shared ServableExport payload so standalone files
  // and training checkpoints carry byte-compatible sections. The behaviour
  // snapshot's exploration fields are irrelevant to serving; write the
  // greedy/no-exploration values.
  rl::ServableExport exported;
  exported.behavior.exploration = rl::ExplorationMode::kNone;
  exported.behavior.epsilon_random = 0.0;
  exported.behavior.epsilon_demo = 0.0;
  exported.behavior.action_noise_stddev = 0.0;
  exported.behavior.parameter_noise_stddev = 0.0;
  exported.behavior.log_state_features = snapshot.log_state_features;
  exported.behavior.consumer_budget = snapshot.consumer_budget;
  exported.behavior.action_dim = snapshot.action_dim;
  exported.behavior.policy = snapshot.policy;
  exported.behavior.shift = snapshot.shift;
  exported.behavior.scale = snapshot.scale;
  exported.rounding = snapshot.rounding;
  exported.min_consumers_per_type = snapshot.min_consumers_per_type;

  persist::BinaryWriter payload;
  rl::write_servable_export(payload, exported);
  persist::CheckpointWriter writer;
  writer.add_section("servable", std::move(payload));
  writer.write_file(path);
}

ActorSnapshot load_servable(const std::string& path) {
  const persist::CheckpointReader reader = persist::CheckpointReader::open(path);
  if (!reader.has_section("servable"))
    throw std::runtime_error(
        "serve: '" + path +
        "' has no servable section (a training checkpoint written before "
        "the serving path, or not a miras file) — re-save the checkpoint or "
        "export with save_servable()");
  persist::BinaryReader section = reader.section("servable");
  ActorSnapshot snap =
      ActorSnapshot::from_export(rl::read_servable_export(section));
  section.expect_end();
  return snap;
}

}  // namespace miras::serve
