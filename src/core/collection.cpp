#include "core/collection.h"

#include <algorithm>
#include <optional>

#include "common/contracts.h"
#include "rl/action.h"
#include "sim/system.h"

namespace miras::core {

CollectionBehavior pick_collection_behavior(const MirasConfig& config,
                                            Rng& rng) {
  const double u = rng.uniform();
  if (u < config.demo_episode_fraction) return CollectionBehavior::kDemo;
  if (u < config.demo_episode_fraction + config.random_episode_fraction)
    return CollectionBehavior::kRandom;
  return CollectionBehavior::kPolicy;
}

std::vector<double> random_simplex_weights(std::size_t dim, Rng& rng) {
  std::vector<double> weights(dim);
  double total = 0.0;
  for (double& w : weights) {
    w = rng.exponential(1.0);
    total += w;
  }
  for (double& w : weights) w /= total;
  return weights;
}

std::vector<double> demo_proportional_weights(const std::vector<double>& state,
                                              Rng& rng) {
  std::vector<double> weights(state.size());
  double total = 0.0;
  for (std::size_t j = 0; j < state.size(); ++j) {
    weights[j] = (std::max(state[j], 0.0) + 1.0) * rng.uniform(0.75, 1.25);
    total += weights[j];
  }
  for (double& w : weights) w /= total;
  return weights;
}

void maybe_inject_collection_burst(const MirasConfig& config, sim::Env* env,
                                   Rng& rng) {
  if (config.collection_burst_probability <= 0.0) return;
  if (rng.uniform() >= config.collection_burst_probability) return;
  auto* system = dynamic_cast<sim::MicroserviceSystem*>(env);
  if (system == nullptr) return;
  sim::BurstSpec burst;
  burst.counts.resize(system->ensemble().num_workflows());
  for (auto& count : burst.counts)
    count = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(config.collection_burst_max)));
  system->inject_burst(burst);
}

CollectedEpisode run_shard_episode(const EpisodeSpec& spec,
                                   bool random_actions,
                                   const rl::BehaviorSnapshot& behavior,
                                   const MirasConfig& config,
                                   const EnvFactory& make_env,
                                   common::ObjectPool<sim::Env>* env_pool) {
  // Draw order is the contract: env seed, burst, behaviour, exploration
  // snapshot, then per-step draws. Any reordering changes every seeded run.
  Rng ep_rng(spec.seed);
  const std::uint64_t env_seed = ep_rng.next_u64();
  // Recycle a pooled environment when it supports in-place reseeding
  // (reseed ≡ fresh construction with env_seed); otherwise build one.
  // Per-episode construction caused allocator contention across shards.
  std::unique_ptr<sim::Env> env;
  if (env_pool != nullptr) env = env_pool->try_acquire();
  if (env == nullptr || !env->reseed(env_seed)) env = make_env(env_seed);
  MIRAS_EXPECTS(env != nullptr);

  std::vector<double> state = env->reset();
  maybe_inject_collection_burst(config, env.get(), ep_rng);
  const CollectionBehavior chosen =
      random_actions ? CollectionBehavior::kRandom
                     : pick_collection_behavior(config, ep_rng);
  std::optional<rl::ExplorationSnapshot> snapshot;
  if (chosen == CollectionBehavior::kPolicy)
    snapshot = behavior.instantiate(ep_rng);

  CollectedEpisode episode;
  episode.index = spec.index;
  episode.transitions.reserve(spec.length);
  for (std::size_t step = 0; step < spec.length; ++step) {
    std::vector<double> weights;
    switch (chosen) {
      case CollectionBehavior::kRandom:
        weights = random_simplex_weights(env->action_dim(), ep_rng);
        break;
      case CollectionBehavior::kDemo:
        weights = demo_proportional_weights(state, ep_rng);
        break;
      case CollectionBehavior::kPolicy:
        weights = snapshot->act(state, ep_rng);
        break;
    }
    const std::vector<int> allocation = rl::allocation_with_minimum(
        weights, env->consumer_budget(), config.ddpg.rounding,
        config.ddpg.min_consumers_per_type);
    const sim::StepResult result = env->step(allocation);
    episode.transitions.push_back(
        envmodel::Transition{state, allocation, result.state, result.reward});
    state = result.state;
  }
  if (snapshot)
    episode.constraint_violations = snapshot->constraint_violations();
  if (env_pool != nullptr) env_pool->release(std::move(env));
  return episode;
}

}  // namespace miras::core
