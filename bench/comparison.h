// Shared driver for the Figure 7/8 comparison benches: trains MIRAS and the
// model-free DDPG comparator (same number of real interactions, §VI-D),
// instantiates the DRS/HEFT/MONAD baselines, and replays every burst
// scenario against identically-seeded systems.
//
// With --threads N the two trainings run concurrently (the model-free one on
// a thread of its own), MIRAS collects its real episodes and synthetic
// rollouts on the pool (seed-sharded), and the evaluation grid runs one cell
// per (scenario, policy) on the pool. The result tables are byte-identical
// for every thread count: parallel work is decomposed into seed-sharded
// units merged in index order, never by completion order.
#pragma once

#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/drs.h"
#include "baselines/heft.h"
#include "baselines/monad.h"
#include "bench_util.h"
#include "core/miras_agent.h"
#include "core/trainer_config.h"

namespace miras::bench {

struct ComparisonSetup {
  std::string name;
  std::function<workflows::Ensemble()> make_ensemble;
  int budget = 0;
  core::MirasConfig miras_config;
  /// (label, burst) scenarios; the paper feeds each burst at evaluation
  /// start on top of the steady Poisson stream.
  std::vector<std::pair<std::string, sim::BurstSpec>> bursts;
  std::size_t steps = 40;
};

inline void run_comparison(const ComparisonSetup& setup,
                           const BenchOptions& options) {
  const workflows::Ensemble ensemble = setup.make_ensemble();
  const std::unique_ptr<common::ThreadPool> pool = make_pool(options);

  auto make_eval_system = [&setup](std::uint64_t seed) {
    sim::SystemConfig config;
    config.consumer_budget = setup.budget;
    config.seed = seed;
    return std::make_unique<sim::MicroserviceSystem>(setup.make_ensemble(),
                                                     config);
  };

  // --- Train MIRAS (on this thread; its episode collection and synthetic
  // rollout generation use the pool when one exists).
  sim::SystemConfig train_config;
  train_config.consumer_budget = setup.budget;
  train_config.seed = options.seed + 11;
  sim::MicroserviceSystem train_system(setup.make_ensemble(), train_config);
  std::cout << "\n=== " << setup.name << ": training MIRAS ("
            << setup.miras_config.outer_iterations << " iterations x "
            << setup.miras_config.real_steps_per_iteration
            << " real steps)\n";
  core::MirasAgent miras(&train_system, setup.miras_config);
  miras.enable_parallel_collection(
      pool.get(), [&setup](std::uint64_t seed) -> std::unique_ptr<sim::Env> {
        sim::SystemConfig config;
        config.consumer_budget = setup.budget;
        config.seed = seed;
        return std::make_unique<sim::MicroserviceSystem>(setup.make_ensemble(),
                                                         config);
      });

  // --- Model-free comparator with the same real-step budget; independent
  // of the MIRAS training, so with a pool it overlaps with it on a thread
  // of its own.
  const std::size_t total_real_steps =
      setup.miras_config.outer_iterations *
      setup.miras_config.real_steps_per_iteration;
  sim::SystemConfig mf_config = train_config;
  mf_config.seed = options.seed + 12;
  core::ModelFreeConfig model_free;
  model_free.ddpg = setup.miras_config.ddpg;
  model_free.total_steps = total_real_steps;
  model_free.reset_interval = setup.miras_config.reset_interval;
  auto train_mf = [&setup, mf_config, model_free] {
    sim::MicroserviceSystem mf_system(setup.make_ensemble(), mf_config);
    return core::train_model_free_ddpg(mf_system, model_free);
  };

  std::unique_ptr<rl::DdpgAgent> mf_agent;
  {
    ScopedTimer timer(setup.name + " training", options.threads);
    // The thread hands back its agent or its exception; the jthread joins
    // on every exit from this scope.
    std::optional<rl::DdpgAgent> mf_result;
    std::exception_ptr mf_error;
    std::jthread mf_thread;
    if (pool != nullptr)
      mf_thread = std::jthread([&] {
        try {
          mf_result.emplace(train_mf());
        } catch (...) {
          mf_error = std::current_exception();
        }
      });
    std::vector<core::IterationTrace> traces;
    train_with_checkpoints(
        miras, options, to_lower(setup.name) + "_miras.ckpt",
        [&traces](const core::IterationTrace& trace) {
          traces.push_back(trace);
        });
    if (!traces.empty())
      std::cout << "MIRAS final eval aggregated reward: "
                << format_double(traces.back().eval_aggregate_reward, 1)
                << "\n";
    std::cout << "training model-free DDPG (same " << total_real_steps
              << " real interactions)\n";
    if (mf_thread.joinable()) {
      mf_thread.join();
      if (mf_error) std::rethrow_exception(mf_error);
      mf_agent = std::make_unique<rl::DdpgAgent>(std::move(*mf_result));
    } else {
      mf_agent = std::make_unique<rl::DdpgAgent>(train_mf());
    }
  }
  auto miras_policy = miras.make_policy();
  core::DdpgPolicy rl_policy(mf_agent.get(), "rl");

  // --- Evaluation grid: fresh policy instance per cell ("stream" is the
  // paper's label for DRS); the two DDPG policies view their trained agents
  // through the const greedy path, so cells can share them concurrently.
  const std::vector<core::PolicySpec> policies{
      {"miras",
       [&miras] {
         return std::make_unique<core::DdpgPolicy>(&miras.ddpg(), "miras");
       }},
      {"stream",
       [&ensemble] { return std::make_unique<baselines::DrsPolicy>(ensemble); }},
      {"heft",
       [&ensemble] {
         return std::make_unique<baselines::HeftPolicy>(ensemble);
       }},
      {"monad",
       [&ensemble] {
         return std::make_unique<baselines::MonadPolicy>(ensemble);
       }},
      {"rl", [&mf_agent] {
         return std::make_unique<core::DdpgPolicy>(mf_agent.get(), "rl");
       }}};
  std::vector<core::ScenarioSpec> scenarios;
  for (const auto& [label, burst] : setup.bursts)
    scenarios.push_back(
        core::ScenarioSpec{label, core::ScenarioConfig{burst, setup.steps}});

  core::EvaluationHarness harness(make_eval_system, pool.get());
  core::GridResult grid;
  {
    ScopedTimer timer(setup.name + " evaluation grid", options.threads);
    // One replication, seeded identically for every policy and scenario
    // (same arrival trace for everyone).
    grid = harness.run(policies, scenarios, {options.seed + 999},
                       setup.steps / 4);
  }

  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    std::vector<core::EvaluationTrace> eval_traces;
    for (std::size_t p = 0; p < policies.size(); ++p)
      eval_traces.push_back(grid.cell(s, p).trace);
    emit(response_time_table(eval_traces), options,
         setup.name + " " + scenarios[s].label +
             " — mean response time per window (s)");
    emit(summary_table(eval_traces, setup.steps / 4), options,
         setup.name + " " + scenarios[s].label + " — summary");
  }
}

}  // namespace miras::bench
