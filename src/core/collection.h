// Seed-sharded real-environment episode collection, shared between the
// in-process parallel engine (MirasAgent + ThreadPool) and the distributed
// actor-learner topology (src/dist/).
//
// The unit of work is one EpisodeSpec: an episode is a pure function of
// (spec.seed, random_actions, the learner's BehaviorSnapshot, MirasConfig,
// the environment factory) — no shared rng stream, no thread identity, no
// wall clock. Because of that purity, *where* an episode runs is
// invisible to the result: the same specs executed on a thread pool, on a
// collector process across a pipe, or inline all merge to bit-identical
// training state. That is the contract every distributed test leans on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/object_pool.h"
#include "common/rng.h"
#include "core/trainer_config.h"
#include "envmodel/dataset.h"
#include "rl/ddpg.h"
#include "sim/env.h"

namespace miras::core {

/// Episode-level behaviour used for exploration and data collection.
enum class CollectionBehavior { kPolicy, kRandom, kDemo };

/// One seed-sharded unit of real-environment collection. `index` is the
/// episode's position in the collection schedule — the merge key.
struct EpisodeSpec {
  std::size_t index = 0;
  std::size_t length = 0;
  std::uint64_t seed = 0;
};

struct CollectedEpisode {
  std::size_t index = 0;
  std::vector<envmodel::Transition> transitions;
  std::size_t constraint_violations = 0;
};

/// Builds an isolated environment for one collection episode; must be pure
/// in the seed (see MirasAgent::EnvFactory).
using EnvFactory = std::function<std::unique_ptr<sim::Env>(std::uint64_t)>;

/// Draws the episode behaviour from the configured episode-type fractions.
CollectionBehavior pick_collection_behavior(const MirasConfig& config,
                                            Rng& rng);

/// Exponential spacings: a uniform draw from the probability simplex.
std::vector<double> random_simplex_weights(std::size_t dim, Rng& rng);

/// WIP-proportional demonstration weights (+1 keeps idle queues warm; mild
/// noise varies the demonstrations between episodes).
std::vector<double> demo_proportional_weights(const std::vector<double>& state,
                                              Rng& rng);

/// With the configured probability, injects a random workload burst into
/// `env` (MicroserviceSystem only; other envs are left untouched).
void maybe_inject_collection_burst(const MirasConfig& config, sim::Env* env,
                                   Rng& rng);

/// Runs one collection episode. Every stochastic choice — environment
/// arrivals, burst, behaviour, exploration — flows from spec.seed in a
/// fixed draw order. `env_pool` (optional) recycles environments across
/// episodes via Env::reseed(); recycling is invisible to results.
CollectedEpisode run_shard_episode(const EpisodeSpec& spec,
                                   bool random_actions,
                                   const rl::BehaviorSnapshot& behavior,
                                   const MirasConfig& config,
                                   const EnvFactory& make_env,
                                   common::ObjectPool<sim::Env>* env_pool);

/// Pluggable executor for one sharded collection phase. MirasAgent hands
/// the full fixed schedule (specs) plus the frozen behaviour to the
/// backend; the backend returns every episode's result. Results must be
/// complete and per-episode bit-identical to run_shard_episode — the agent
/// merges them in index order, so execution placement and timing never
/// reach the training state.
class CollectionBackend {
 public:
  virtual ~CollectionBackend() = default;

  /// Executes all of `specs` and returns results such that
  /// results[i].index == specs[i].index (same order as specs).
  virtual std::vector<CollectedEpisode> collect(
      const std::vector<EpisodeSpec>& specs, bool random_actions,
      const rl::BehaviorSnapshot& behavior) = 0;
};

}  // namespace miras::core
