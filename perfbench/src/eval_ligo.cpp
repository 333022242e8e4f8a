// eval_ligo: the fig8 evaluation grid on LIGO — DRS, HEFT, MONAD and a
// seeded LIGO-fast-shape DDPG actor over fig8's three bursts x many arrival
// seeds, run by EvaluationHarness on one thread.
//
// A pass is one harness.run over the whole grid; every pass of a run must
// reproduce the same grid-summary digest, and a sampled subset of cells
// re-run on an nproc pool must reproduce the inline cells bit for bit.
// For the end-to-end metrics, set-ups and passes are timed on the process
// CPU clock and scaled by the reference job run right before (and after)
// them; eval_windows_per_s and the layer figures use the wall clock.
//
// Cells are timed through a forwarding rl::Policy decorator: the harness
// builds one policy per cell and drops it when the cell ends, so the
// decorator's lifetime is the cell. Traced, the decorator also records each
// decide() and the simulator step between consecutive decides.
#include <algorithm>
#include <cstdint>
#include <atomic>
#include <memory>
#include <iostream>
#include <mutex>
#include <sstream>

#include "baselines/drs.h"
#include "baselines/heft.h"
#include "baselines/monad.h"
#include "common/rng.h"
#include "core/evaluation.h"
#include "core/miras_agent.h"
#include "core/trainer_config.h"
#include "harness.h"
#include "sim/system.h"
#include "workflows/ligo.h"

namespace perfbench {
namespace {

using namespace miras;

constexpr std::size_t kSeeds = 48;       // arrival seeds per pass
constexpr std::size_t kSteps = 40;       // control windows per cell (fig8)
constexpr std::size_t kTailWindows = kSteps / 4;
constexpr std::size_t kCheckSeeds = 2;   // seeds re-run on the pool per run
constexpr std::size_t kTracedPasses = 5;
const char* const kKinds[] = {"drs", "heft", "monad", "ddpg"};

/// Cell and decide timings shared by every decorator of a grid.
struct CellLog {
  std::mutex mutex;  // guards the vectors
  std::vector<double> cell_us;
  std::vector<double> cell_cpu_us;
  std::vector<std::vector<double>> cell_cpu_us_by_kind;
  std::vector<double> step_us;
  std::vector<std::vector<double>> decide_us;  // per policy kind
  std::atomic<std::uint64_t> busy_ns{0};
};

class TimedPolicy final : public rl::Policy {
 public:
  TimedPolicy(std::unique_ptr<rl::Policy> inner, std::size_t kind,
              const char* decide_span, CellLog* log, SpanRecorder* recorder)
      : inner_(std::move(inner)),
        kind_(kind),
        decide_span_(decide_span),
        log_(log),
        recorder_(recorder),
        cell_id_(recorder != nullptr ? recorder->next_id() : 0),
        start_ns_(now_ns()),
        start_cpu_ns_(thread_cpu_ns()),
        last_ns_(start_ns_) {}

  ~TimedPolicy() override {
    const std::uint64_t end_cpu = thread_cpu_ns();
    const std::uint64_t end = now_ns();
    if (recorder_ != nullptr) {
      // The last window's step runs between the final decide and the end.
      recorder_->record("sim.step", last_ns_, end, cell_id_);
      recorder_->record("core.eval_cell", start_ns_, end, 0, 0, cell_id_);
    }
    log_->busy_ns.fetch_add(end - start_ns_, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(log_->mutex);
    log_->cell_us.push_back(static_cast<double>(end - start_ns_) / 1e3);
    log_->cell_cpu_us.push_back(static_cast<double>(end_cpu - start_cpu_ns_) /
                                1e3);
    log_->cell_cpu_us_by_kind[kind_].push_back(log_->cell_cpu_us.back());
    log_->step_us.insert(log_->step_us.end(), steps_.begin(), steps_.end());
    auto& decides = log_->decide_us[kind_];
    decides.insert(decides.end(), decides_.begin(), decides_.end());
  }

  std::string name() const override { return inner_->name(); }
  void begin_episode() override { inner_->begin_episode(); }

  std::vector<int> decide(const sim::WindowStats& last_window,
                          int budget) override {
    if (recorder_ == nullptr) return inner_->decide(last_window, budget);
    const std::uint64_t t0 = now_ns();
    // The first gap is reset + burst injection; later ones are one
    // MicroserviceSystem::step plus run_scenario's bookkeeping.
    recorder_->record(first_ ? "sim.reset" : "sim.step", last_ns_, t0,
                      cell_id_);
    if (!first_) steps_.push_back(static_cast<double>(t0 - last_ns_) / 1e3);
    first_ = false;
    std::vector<int> allocation = inner_->decide(last_window, budget);
    last_ns_ = now_ns();
    recorder_->record(decide_span_, t0, last_ns_, cell_id_);
    decides_.push_back(static_cast<double>(last_ns_ - t0) / 1e3);
    return allocation;
  }

 private:
  std::unique_ptr<rl::Policy> inner_;
  std::size_t kind_;
  const char* decide_span_;
  CellLog* log_;
  SpanRecorder* recorder_;
  std::uint32_t cell_id_;
  std::uint64_t start_ns_;
  std::uint64_t start_cpu_ns_;
  std::uint64_t last_ns_;
  bool first_ = true;
  std::vector<double> steps_;
  std::vector<double> decides_;
};

std::string cell_text(const core::GridCell& cell) {
  std::ostringstream text;
  text << cell.scenario_index << "/" << cell.policy_index << "/"
       << cell.system_seed;
  for (const sim::WindowStats& w : cell.trace.windows)
    text << " " << hexfloat(w.reward) << ":"
         << hexfloat(w.overall_mean_response_time);
  return text.str();
}

std::string grid_text(const core::GridResult& grid) {
  std::ostringstream text;
  for (const core::GridSummary& s : grid.summaries)
    text << s.scenario << "|" << s.policy << "|" << s.replications << "|"
         << hexfloat(s.aggregate_reward.mean()) << "|"
         << hexfloat(s.response_time.mean()) << "|"
         << hexfloat(s.tail_response_time.mean()) << "|"
         << hexfloat(s.final_total_wip.mean()) << "\n";
  return text.str();
}

/// Everything a grid needs, built once per set-up. Heap-held so the
/// policy factories can point into it.
struct Grid {
  workflows::Ensemble ensemble = workflows::make_ligo_ensemble();
  std::unique_ptr<rl::DdpgAgent> actor;
  std::vector<core::ScenarioSpec> scenarios;
  std::vector<std::uint64_t> seeds;
  std::unique_ptr<core::EvaluationHarness> harness;
  std::atomic<std::uint64_t> systems_built{0};

  /// The four policies, each wrapped in a TimedPolicy logging into `log`.
  std::vector<core::PolicySpec> policies(CellLog* log,
                                         SpanRecorder* recorder) const {
    static const char* const kDecideSpans[] = {
        "baselines.decide_drs", "baselines.decide_heft",
        "baselines.decide_monad", "rl.decide_ddpg"};
    const auto spec = [&](std::size_t kind,
                          std::function<std::unique_ptr<rl::Policy>()> make) {
      return core::PolicySpec{
          kKinds[kind], [log, recorder, kind, make = std::move(make)] {
            return std::unique_ptr<rl::Policy>(std::make_unique<TimedPolicy>(
                make(), kind, kDecideSpans[kind], log, recorder));
          }};
    };
    const workflows::Ensemble* e = &ensemble;
    const rl::DdpgAgent* a = actor.get();
    return {
        spec(0, [e] { return std::make_unique<baselines::DrsPolicy>(*e); }),
        spec(1, [e] { return std::make_unique<baselines::HeftPolicy>(*e); }),
        spec(2, [e] { return std::make_unique<baselines::MonadPolicy>(*e); }),
        spec(3, [a] { return std::make_unique<core::DdpgPolicy>(a, "ddpg"); }),
    };
  }
};

std::unique_ptr<Grid> build_grid(std::uint64_t seed, common::ThreadPool* pool) {
  auto grid = std::make_unique<Grid>();
  sim::SystemConfig config;
  config.consumer_budget = workflows::kLigoConsumerBudget;
  const sim::MicroserviceSystem probe(workflows::make_ligo_ensemble(), config);
  rl::DdpgConfig ddpg_config = core::miras_ligo_fast_config().ddpg;
  ddpg_config.seed = seed * 104729 + 31;
  grid->actor = std::make_unique<rl::DdpgAgent>(
      probe.state_dim(), probe.action_dim(), probe.consumer_budget(),
      ddpg_config);
  grid->scenarios = {
      {"burst (100,100,50,30)",
       core::ScenarioConfig{sim::BurstSpec{{100, 100, 50, 30}}, kSteps}},
      {"burst (150,150,80,50)",
       core::ScenarioConfig{sim::BurstSpec{{150, 150, 80, 50}}, kSteps}},
      {"burst (80,80,80,80)",
       core::ScenarioConfig{sim::BurstSpec{{80, 80, 80, 80}}, kSteps}}};
  miras::Rng seed_rng(seed * 15485863 + 999);
  grid->seeds.resize(kSeeds);
  for (std::uint64_t& s : grid->seeds) s = seed_rng.next_u64();
  std::atomic<std::uint64_t>* built = &grid->systems_built;
  grid->harness = std::make_unique<core::EvaluationHarness>(
      [built](std::uint64_t system_seed) {
        built->fetch_add(1, std::memory_order_relaxed);
        sim::SystemConfig c;
        c.consumer_budget = workflows::kLigoConsumerBudget;
        c.seed = system_seed;
        return std::make_unique<sim::MicroserviceSystem>(
            workflows::make_ligo_ensemble(), c);
      },
      pool);
  return grid;
}

}  // namespace

Section run_eval_ligo(const Options& options, SpanRecorder* recorder,
                      const Budget& budget) {
  Section s;

  // Set-up: the grid measured, then one more (dropped) before each later
  // pass, so the set-up samples span the run.
  double reference = reference_median_s(1, &s.reference_s);
  const auto timed_setup = [&] {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t cpu0 = process_cpu_ns();
    std::unique_ptr<Grid> built = build_grid(options.seed, nullptr);
    s.setup_s.push_back(scaled_s(
        static_cast<double>(process_cpu_ns() - cpu0) * 1e-9, reference));
    if (recorder != nullptr) recorder->record("core.eval_setup", t0, now_ns(), 0);
    return built;
  };
  const std::unique_ptr<Grid> grid = timed_setup();
  CellLog log;
  log.decide_us.resize(4);
  log.cell_cpu_us_by_kind.resize(4);
  const std::vector<core::PolicySpec> policies = grid->policies(&log, recorder);
  const std::vector<core::ScenarioSpec>& scenarios = grid->scenarios;
  const std::vector<std::uint64_t>& seeds = grid->seeds;
  const core::EvaluationHarness& harness = *grid->harness;

  const std::size_t windows_per_pass =
      scenarios.size() * policies.size() * seeds.size() * kSteps;
  core::GridResult first;
  std::string first_text;
  std::vector<double> busy_share, pass_cpu_s, pass_wall_s;
  const std::uint64_t run_start = now_ns();
  std::size_t passes = 0;
  // A companion pass in a traced run is one pass; otherwise at least two,
  // so the every-pass-agrees check always has a pair. Traced, a pass records
  // ~47k spans, so the traced workload stops after kTracedPasses.
  const std::size_t min_passes = budget.minimal ? 1 : 2;
  const std::size_t max_passes =
      budget.minimal ? 1 : (recorder != nullptr ? kTracedPasses : SIZE_MAX);
  while (passes < max_passes &&
         (passes < min_passes || seconds_since(run_start) < budget.seconds)) {
    const std::size_t cells_before = log.cell_us.size();
    log.busy_ns = 0;
    if (passes > 0) timed_setup();
    const std::uint64_t t0 = now_ns();
    const std::uint64_t cpu0 = process_cpu_ns();
    core::GridResult result;
    {
      const ScopedSpan span(recorder, "core.eval_grid");
      result = harness.run(policies, scenarios, seeds, kTailWindows);
    }
    const double cpu = static_cast<double>(process_cpu_ns() - cpu0) * 1e-9;
    const double wall = seconds_since(t0);
    const double reference_after = reference_median_s(1, &s.reference_s);
    s.pass_s.push_back(scaled_s(cpu, 0.5 * (reference + reference_after)));
    reference = reference_after;
    pass_cpu_s.push_back(cpu);
    pass_wall_s.push_back(wall);
    busy_share.push_back(static_cast<double>(log.busy_ns.load()) * 1e-9 / wall);
    s.attempted += result.cells.size();
    if (log.cell_us.size() - cells_before != result.cells.size())
      s.fail("eval_ligo: timed " +
             std::to_string(log.cell_us.size() - cells_before) +
             " cells, grid has " + std::to_string(result.cells.size()));
    const std::string text = grid_text(result);
    if (first_text.empty()) {
      first_text = text;
      first = std::move(result);
    } else if (text != first_text) {
      s.fail("eval_ligo: pass " + std::to_string(passes) +
             " grid summary differs from pass 0");
    }
    ++passes;
  }
  s.scaled_cpu = true;
  s.digest = fnv1a_hex(first_text);

  // Re-run of a sampled subset of arrival seeds on an nproc pool: each cell
  // must be bit-identical to the inline grid's cell for the same seed.
  {
    miras::Rng pick(options.seed * 2654435761u + 17);
    const auto check_pool = make_pool(options.threads);
    const std::unique_ptr<Grid> check_grid =
        build_grid(options.seed, check_pool.get());
    CellLog check_log;
    check_log.decide_us.resize(4);
    check_log.cell_cpu_us_by_kind.resize(4);
    const std::vector<core::PolicySpec> check_policies =
        check_grid->policies(&check_log, nullptr);
    for (std::size_t n = 0; n < kCheckSeeds; ++n) {
      const std::size_t k = pick.next_u64() % seeds.size();
      const core::GridResult sub = check_grid->harness->run(
          check_policies, scenarios, {seeds[k]}, kTailWindows);
      for (std::size_t sc = 0; sc < scenarios.size(); ++sc)
        for (std::size_t p = 0; p < policies.size(); ++p)
          if (cell_text(sub.cell(sc, p, 0)) != cell_text(first.cell(sc, p, k)))
            s.fail("eval_ligo: re-run cell (scenario " + std::to_string(sc) +
                   ", policy " + kKinds[p] + ", seed #" + std::to_string(k) +
                   ") differs from the measured grid");
    }
  }

  s.detail = {{"eval_windows_per_s",
               static_cast<double>(windows_per_pass) / median(pass_wall_s),
               "1/s"},
              {"eval_cpu_windows_per_s",
               static_cast<double>(windows_per_pass) / median(pass_cpu_s),
               "1/s"},
              {"speed.reference_ms", median(s.reference_s) * 1e3, "ms"},
              {"eval.windows_per_pass", double(windows_per_pass), "count"},
              {"eval.passes", double(passes), "count"},
              {"eval.cell_cpu_p50_us", percentile(log.cell_cpu_us, 50), "us"},
              {"eval.cell_cpu_p99_us", percentile(log.cell_cpu_us, 99), "us"}};
  for (std::size_t kind = 0; kind < 4; ++kind)
    s.detail.push_back({std::string("eval.cell_cpu_p50_us.") + kKinds[kind],
                        median(log.cell_cpu_us_by_kind[kind]), "us"});

  if (recorder != nullptr) {
    const Tail step = tail_percentile(log.step_us);
    std::cerr << "[perfbench] sim.step_us tail: p" << step.percentile
              << " over " << step.count << " steps\n";
    s.layers = {
        {"eval.decide_us.drs", median(log.decide_us[0]), "us"},
        {"eval.decide_us.heft", median(log.decide_us[1]), "us"},
        {"eval.decide_us.monad", median(log.decide_us[2]), "us"},
        {"eval.decide_us.ddpg", median(log.decide_us[3]), "us"},
        {"sim.step_us.p50", median(log.step_us), "us"},
        {"sim.step_us.p99", step.value, "us"},
        {"eval.cell_ms", median(log.cell_us) / 1e3, "ms"},
        {"eval.pool_busy_share", median(busy_share), "share"},
        {"eval.systems_built", double(grid->systems_built.load()), "count"},
    };
  }
  return s;
}

}  // namespace perfbench
