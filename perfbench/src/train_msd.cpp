// train_msd: Algorithm 2 on MSD with the fast preset and seed-sharded
// collection (as fig7/8 drive it), on one thread; closed-loop batch work.
//
// A pass builds a fresh agent and runs kIterations outer iterations; every
// pass of a run uses the same seed, so every pass must reproduce the same
// per-iteration trace (digest). For the end-to-end metrics, set-ups and
// iterations are timed on the process CPU clock and scaled by the reference
// job run right before and after them (a pass = the sum of its scaled
// iterations); train_s and the layer shares use the wall clock.
//
// Traced: spans around run_iteration and around each collection episode
// (through a CollectionBackend running the same run_shard_episode schedule,
// bit-identical by the backend contract). At every iteration boundary the
// agent is checkpointed and a twin restored from it times the phases
// run_iteration does not expose: DDPG updates at 1 and N threads, the model
// fit, the refiner, one synthetic lockstep step and the real-env eval.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <iostream>
#include <sstream>

#include "core/collection.h"
#include "core/miras_agent.h"
#include "core/trainer_config.h"
#include "envmodel/synthetic_env.h"
#include "harness.h"
#include "sim/system.h"
#include "workflows/msd.h"

namespace perfbench {
namespace {

using namespace miras;

constexpr std::size_t kIterations = 2;
/// Floor on the final iteration's eval reward (aggregated reward over the
/// preset's 25 eval windows; rewards are negative WIP sums). Observed values
/// after two iterations sit far above it; a diverged or degenerate policy
/// that lets the queues explode falls below.
constexpr double kRewardFloor = -20000.0;
// Updates timed per boundary (~0.6 s inline, ~0.3 s pooled), enough to
// ride out host drift; the inline figure feeds rl.update_share.
constexpr std::size_t kUpdateSamples = 400;
constexpr std::size_t kWarmupUpdates = 10;
/// Reference-job runs before each pass and after each iteration.
constexpr std::size_t kReferenceSamples = 3;
constexpr std::size_t kSetupsPerPass = 16;

core::EnvFactory msd_factory() {
  return [](std::uint64_t seed) -> std::unique_ptr<sim::Env> {
    sim::SystemConfig config;
    config.consumer_budget = workflows::kMsdConsumerBudget;
    config.seed = seed;
    return std::make_unique<sim::MicroserviceSystem>(
        workflows::make_msd_ensemble(), config);
  };
}

core::MirasConfig train_config(std::uint64_t seed) {
  core::MirasConfig config = core::miras_msd_fast_config();
  config.seed = seed * 7919 + 4;
  return config;
}

std::unique_ptr<sim::MicroserviceSystem> train_system(std::uint64_t seed) {
  sim::SystemConfig config;
  config.consumer_budget = workflows::kMsdConsumerBudget;
  config.seed = seed * 7919 + 11;
  return std::make_unique<sim::MicroserviceSystem>(
      workflows::make_msd_ensemble(), config);
}

/// One iteration's outputs: the trace point plus the greedy action on a
/// fixed state, so the digest sees any change to the actor's weights even
/// when the integer allocations (and hence the rewards) do not move.
std::string trace_line(const core::IterationTrace& trace,
                       const rl::DdpgAgent& agent) {
  std::ostringstream line;
  line << trace.iteration << " " << trace.dataset_size << " "
       << hexfloat(trace.model_train_loss) << " "
       << hexfloat(trace.eval_aggregate_reward) << " "
       << hexfloat(trace.parameter_noise_stddev);
  std::vector<double> probe(agent.state_dim());
  for (std::size_t j = 0; j < probe.size(); ++j) probe[j] = 10.0 * (j + 1);
  for (const double w : agent.act_greedy(probe)) line << " " << hexfloat(w);
  line << "\n";
  return line.str();
}

/// Runs the agent's collection schedule itself, timing each episode.
class TimedCollection final : public core::CollectionBackend {
 public:
  TimedCollection(const core::MirasConfig& config, core::EnvFactory factory,
                  SpanRecorder* recorder)
      : config_(config),
        factory_(std::move(factory)),
        recorder_(recorder) {}

  std::vector<core::CollectedEpisode> collect(
      const std::vector<core::EpisodeSpec>& specs, bool random_actions,
      const rl::BehaviorSnapshot& behavior) override {
    const std::uint64_t start = now_ns();
    const ScopedSpan span(recorder_, "core.collect");
    std::vector<core::CollectedEpisode> results(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      results[i] = core::run_shard_episode(specs[i], random_actions, behavior,
                                           config_, factory_, &env_pool_);
      recorder_->record("sim.collect_episode", t0, now_ns(), span.id());
    }
    episodes_ += specs.size();
    collect_ms_ += seconds_since(start) * 1e3;
    return results;
  }

  /// Episodes and milliseconds since the last call.
  std::pair<std::size_t, double> take() {
    const auto out = std::make_pair(episodes_, collect_ms_);
    episodes_ = 0;
    collect_ms_ = 0.0;
    return out;
  }

 private:
  core::MirasConfig config_;
  core::EnvFactory factory_;
  SpanRecorder* recorder_;
  common::ObjectPool<sim::Env> env_pool_;
  std::size_t episodes_ = 0;
  double collect_ms_ = 0.0;
};

/// Phase timings (medians) from a twin restored at one iteration boundary.
struct TwinTimes {
  double update_t1_us = 0, update_tn_us = 0, fit_ms = 0, refiner_ms = 0,
         rollout_step_us = 0, eval_ms = 0;
};

TwinTimes time_twin(const core::MirasAgent& agent, std::uint64_t seed,
                    const std::string& path, common::ThreadPool* pool,
                    SpanRecorder* recorder) {
  TwinTimes times;
  {
    const ScopedSpan span(recorder, "persist.save_checkpoint");
    agent.save_checkpoint(path);
  }
  const std::unique_ptr<sim::MicroserviceSystem> env = train_system(seed);
  // MirasAgent::resume, built in place: the agent is not moved after
  // construction.
  const auto twin = std::make_unique<core::MirasAgent>(env.get(), agent.config());
  {
    const ScopedSpan span(recorder, "core.resume");
    twin->restore_checkpoint(path);
  }
  twin->enable_parallel_collection(pool, msd_factory());

  const auto timed = [&](const char* name, auto&& fn) {
    const std::uint64_t t0 = now_ns();
    {
      const ScopedSpan span(recorder, name);
      fn();
    }
    return static_cast<double>(now_ns() - t0);
  };
  times.fit_ms =
      timed("envmodel.fit", [&] { twin->model().fit(twin->dataset()); }) / 1e6;
  times.refiner_ms =
      timed("envmodel.refiner_fit",
            [&] { twin->refiner().fit_thresholds(twin->dataset()); }) /
      1e6;

  // One lockstep group of synthetic rollout lanes, as the agent batches it.
  const core::MirasConfig& config = agent.config();
  envmodel::ModelRefiner refiner = twin->refiner();
  envmodel::SyntheticEnvBatch batch(&twin->model(),
                                    config.use_refiner ? &refiner : nullptr,
                                    &twin->dataset(), env->consumer_budget());
  const std::size_t width = std::max<std::size_t>(config.lockstep_width, 1);
  for (std::size_t l = 0; l < width; ++l) batch.add_lane(seed + l, seed + 99 + l);
  batch.reset_all();
  std::vector<std::vector<int>> allocations(
      width, std::vector<int>(env->action_dim(),
                              env->consumer_budget() /
                                  static_cast<int>(env->action_dim())));
  std::vector<double> steps;
  for (std::size_t t = 0; t < config.rollout_length; ++t)
    steps.push_back(
        timed("envmodel.rollout_step", [&] { batch.step_all(allocations); }) /
        1e3);
  times.rollout_step_us = median(steps);

  // Updates back to back, as the policy phase runs them; a few untimed
  // ones first so the pool's workers are awake when timing starts.
  rl::DdpgAgent& ddpg = twin->ddpg();
  for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), pool}) {
    ddpg.enable_parallel_training(p);
    ddpg.update(kWarmupUpdates);
    std::vector<double> samples;
    for (std::size_t i = 0; i < kUpdateSamples; ++i)
      samples.push_back(timed(p == nullptr ? "rl.update_t1" : "rl.update_tN",
                              [&] { ddpg.update(1); }) /
                        1e3);
    (p == nullptr ? times.update_t1_us : times.update_tn_us) = median(samples);
  }

  times.eval_ms =
      timed("core.eval", [&] { twin->evaluate_on_real(config.eval_steps); }) /
      1e6;
  return times;
}

/// Lockstep steps per iteration: rollouts are generated in batches of
/// rollout_batch, each split into groups of lockstep_width, run one group
/// after another without a pool.
double rollout_steps_per_iteration(const core::MirasConfig& config) {
  const std::size_t total = config.synthetic_rollouts_per_iteration;
  const std::size_t batch = std::max<std::size_t>(config.rollout_batch, 1);
  double steps = 0.0;
  for (std::size_t start = 0; start < total; start += batch) {
    const std::size_t count = std::min(batch, total - start);
    const std::size_t width =
        config.lockstep_width == 0 ? count : config.lockstep_width;
    const std::size_t groups = (count + width - 1) / width;
    steps += static_cast<double>(groups * config.rollout_length);
  }
  return steps;
}

}  // namespace

std::string train_msd_short_digest(std::uint64_t seed, std::size_t threads) {
  core::MirasConfig config = train_config(seed);
  config.real_steps_per_iteration = 100;
  config.synthetic_rollouts_per_iteration = 12;
  config.model.epochs = 5;
  const auto pool = make_pool(threads);
  const auto env = train_system(seed);
  core::MirasAgent agent(env.get(), config);
  agent.enable_parallel_collection(pool.get(), msd_factory());
  std::string text;
  for (std::size_t i = 0; i < kIterations; ++i)
    text += trace_line(agent.run_iteration(), agent.ddpg());
  return fnv1a_hex(text);
}

Section run_train_msd(const Options& options, SpanRecorder* recorder,
                      const Budget& budget) {
  Section s;
  // The twin also times pooled updates, at nproc.
  const auto probe_pool =
      recorder != nullptr ? make_pool(options.threads) : nullptr;
  const core::MirasConfig config = train_config(options.seed);
  const std::string twin_path = options.out_dir + "/train_msd_twin_s" +
                                std::to_string(options.seed) + ".ckpt";

  // Per traced iteration; each is paired with the twin timed right after
  // it, so a share compares numbers taken under the same host load.
  std::vector<double> iter_s, collect_ms, collect_episodes, updates_per_iter;
  std::vector<double> pass_cpu_s, pass_wall_s, iteration_cpu_us;
  std::vector<TwinTimes> twins;
  std::string first_text;
  const std::uint64_t run_start = now_ns();
  std::size_t passes = 0;
  // A companion pass in a traced run is one pass; otherwise at least two,
  // so the every-pass-agrees check always has a pair. A pass takes seconds,
  // so no pass starts that the last one says would end past the budget.
  const std::size_t min_passes = budget.minimal ? 1 : 2;
  double last_pass_s = 0.0;
  while (passes < min_passes ||
         (!budget.minimal &&
          seconds_since(run_start) + last_pass_s < budget.seconds)) {
    const std::uint64_t pass_start = now_ns();
    double reference = reference_median_s(kReferenceSamples, &s.reference_s);
    std::unique_ptr<sim::MicroserviceSystem> env;
    std::unique_ptr<core::MirasAgent> agent;
    std::unique_ptr<TimedCollection> backend;
    // A set-up takes under a millisecond, so one sample per pass is too few
    // for a steady median: set up kSetupsPerPass times and train the last.
    for (std::size_t k = 0; k < kSetupsPerPass; ++k) {
      agent.reset();
      backend.reset();
      env.reset();
      const std::uint64_t setup_start = process_cpu_ns();
      {
        const ScopedSpan span(recorder, "core.setup");
        env = train_system(options.seed);
        agent = std::make_unique<core::MirasAgent>(env.get(), config);
        agent->enable_parallel_collection(nullptr, msd_factory());
        if (recorder != nullptr) {
          backend = std::make_unique<TimedCollection>(config, msd_factory(),
                                                      recorder);
          agent->enable_distributed_collection(backend.get());
        }
      }
      s.setup_s.push_back(scaled_s(
          static_cast<double>(process_cpu_ns() - setup_start) * 1e-9,
          reference));
    }

    std::string text;
    double pass = 0.0;  // scaled CPU seconds
    double pass_cpu = 0.0;
    double pass_wall = 0.0;
    double final_reward = 0.0;
    for (std::size_t i = 0; i < kIterations; ++i) {
      const std::size_t updates_before = agent->ddpg().updates_performed();
      const std::uint64_t t0 = now_ns();
      const std::uint64_t cpu0 = process_cpu_ns();
      core::IterationTrace trace;
      {
        const ScopedSpan span(recorder, "core.iteration");
        trace = agent->run_iteration();
      }
      const double cpu_us = static_cast<double>(process_cpu_ns() - cpu0) / 1e3;
      const double us = static_cast<double>(now_ns() - t0) / 1e3;
      const double reference_after =
          reference_median_s(kReferenceSamples, &s.reference_s);
      iteration_cpu_us.push_back(cpu_us);
      pass += scaled_s(cpu_us / 1e6, 0.5 * (reference + reference_after));
      reference = reference_after;
      pass_cpu += cpu_us / 1e6;
      pass_wall += us / 1e6;
      ++s.attempted;
      text += trace_line(trace, agent->ddpg());
      final_reward = trace.eval_aggregate_reward;
      if (recorder != nullptr) {
        iter_s.push_back(us / 1e6);
        updates_per_iter.push_back(static_cast<double>(
            agent->ddpg().updates_performed() - updates_before));
        const auto [episodes, ms] = backend->take();
        collect_episodes.push_back(static_cast<double>(episodes));
        collect_ms.push_back(ms);
        // Between iterations, so outside every iteration span.
        twins.push_back(time_twin(*agent, options.seed, twin_path,
                                  probe_pool.get(), recorder));
      }
    }
    // The sum of the iterations, so a traced pass excludes its twins.
    s.pass_s.push_back(pass);
    pass_cpu_s.push_back(pass_cpu);
    pass_wall_s.push_back(pass_wall);

    if (!std::isfinite(final_reward) || final_reward < kRewardFloor)
      s.fail("train_msd: final eval reward " + hexfloat(final_reward) +
             " is non-finite or below the floor");
    if (first_text.empty()) {
      first_text = text;
      std::cerr << "[perfbench] train_msd trace (iteration dataset_size "
                   "model_loss eval_reward noise_stddev greedy_action):\n"
                << text;
    } else if (text != first_text) {
      s.fail("train_msd: pass " + std::to_string(passes) +
             " trace differs from pass 0 (digest " + fnv1a_hex(text) +
             " vs " + fnv1a_hex(first_text) + ")");
    }
    ++passes;
    last_pass_s = seconds_since(pass_start);
  }
  std::filesystem::remove(twin_path);
  s.digest = fnv1a_hex(first_text);

  s.scaled_cpu = true;
  s.detail = {{"train_s", median(pass_wall_s), "s"},
              {"train_cpu_s", median(pass_cpu_s), "s"},
              {"speed.reference_ms", median(s.reference_s) * 1e3, "ms"},
              {"train.iterations_per_pass", double(kIterations), "count"},
              {"train.passes", double(passes), "count"},
              {"train.iteration_cpu_p50_s",
               percentile(iteration_cpu_us, 50) / 1e6, "s"}};

  if (recorder != nullptr) {
    const double steps = rollout_steps_per_iteration(config);
    std::vector<double> update_share, unattributed;
    const auto field = [&](double TwinTimes::*member) {
      std::vector<double> v;
      for (const TwinTimes& t : twins) v.push_back(t.*member);
      return median(v);
    };
    for (std::size_t i = 0; i < iter_s.size(); ++i) {
      const TwinTimes& t = twins[i];
      // The update as the workload runs it: inline.
      const double update_s = updates_per_iter[i] * t.update_t1_us / 1e6;
      const double other_s =
          (collect_ms[i] + t.fit_ms + t.refiner_ms + t.eval_ms) / 1e3 +
          steps * t.rollout_step_us / 1e6;
      update_share.push_back(update_s / iter_s[i]);
      unattributed.push_back(1.0 - (update_s + other_s) / iter_s[i]);
    }
    s.layers = {
        {"core.iter_s", median(iter_s), "s"},
        {"core.unattributed_share", median(unattributed), "share"},
        {"core.collect_ms", median(collect_ms), "ms"},
        {"core.collect_episodes", mean(collect_episodes), "count"},
        {"rl.update_us.t1", field(&TwinTimes::update_t1_us), "us"},
        {"rl.update_us.tN", field(&TwinTimes::update_tn_us), "us"},
        {"rl.updates_per_iter", mean(updates_per_iter), "count"},
        {"rl.update_share", median(update_share), "share"},
        {"envmodel.fit_ms", field(&TwinTimes::fit_ms), "ms"},
        {"envmodel.refiner_ms", field(&TwinTimes::refiner_ms), "ms"},
        {"envmodel.rollout_step_us", field(&TwinTimes::rollout_step_us), "us"},
        {"core.eval_ms", field(&TwinTimes::eval_ms), "ms"},
    };
  }
  return s;
}

}  // namespace perfbench
