// serve_open: an open-loop Poisson generator against BatchServer, serving
// an MSD paper-shape actor (3x256) loaded through load_servable, with
// observations drawn from simulated MSD WIP trajectories.
//
// Threads: `lanes` lane workers plus threads - lanes generator threads, so
// the process never runs more threads than nproc. decide() is
// blocking, so each generator has at most one request in flight; a request
// that comes due while its generator is still waiting is sent late, and
// every latency is measured from the moment the request was due.
//
// A pass is a closed-loop saturation burst: every generator sends a fixed
// number of requests back to back (the server's capacity). The ladder then
// offers three fixed Poisson rates (low, mid, high) for a share of the run
// each; a step is over capacity when its backlog (generator lateness) grows
// across the step. The end-to-end latency metrics are p50 and the windowed
// p90 at `mid`; every step's p50/p90/p99 is reported alongside. On a shared
// VM the p99 of every step is set by vCPU wake-up delays (see NOTES.md).
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <thread>

#include "baselines/simple.h"
#include "common/rng.h"
#include "core/trainer_config.h"
#include "harness.h"
#include "rl/policy.h"
#include "serve/admission.h"
#include "serve/servable.h"
#include "sim/system.h"
#include "workflows/msd.h"

namespace perfbench {
namespace {

using namespace miras;

constexpr std::size_t kLanes = 1;
constexpr std::size_t kMaxBatch = 8;
constexpr std::size_t kSaturationRequests = 1500;  // per generator, per pass
constexpr std::size_t kSaturationPasses = 2;  // per slot, 4 slots
constexpr std::size_t kEpisodes = 12;   // simulated MSD episodes per set-up
constexpr std::size_t kWindows = 40;    // windows per episode
constexpr std::size_t kSampleEvery = 61;  // decisions re-checked directly
constexpr double kWindowS = 0.5;  // tail-latency window within a step
/// The step whose latencies are the end-to-end metrics (`mid`).
constexpr std::size_t kGatedStep = 1;
/// The latency limit the ladder is judged against (p99, microseconds).
constexpr double kP99LimitUs = 5000.0;

struct Step {
  const char* name;
  double rate;  // requests per second, all generators together
};
constexpr Step kLadder[] = {{"low", 1500.0}, {"mid", 6000.0}, {"high", 12000.0}};

/// Simulated MSD WIP states: several episodes under a WIP-proportional
/// policy, each opened by a seeded burst.
std::vector<std::vector<double>> simulate_states(std::uint64_t seed) {
  sim::SystemConfig config;
  config.consumer_budget = workflows::kMsdConsumerBudget;
  config.seed = seed * 6364136223846793005ull + 1442695040888963407ull;
  sim::MicroserviceSystem system(workflows::make_msd_ensemble(), config);
  baselines::ProportionalPolicy policy(system.action_dim());
  Rng rng(seed * 97 + 5);
  std::vector<std::vector<double>> states;
  states.reserve(kEpisodes * kWindows);
  for (std::size_t e = 0; e < kEpisodes; ++e) {
    system.reset();
    sim::BurstSpec burst;
    for (std::size_t w = 0; w < system.ensemble().num_workflows(); ++w)
      burst.counts.push_back(rng.next_u64() % 120);
    system.inject_burst(burst);
    sim::WindowStats last = rl::initial_window_stats(
        system.observe_wip(), system.ensemble().num_workflows(),
        system.ensemble().num_task_types());
    for (std::size_t k = 0; k < kWindows; ++k) {
      last = system.step(policy.decide(last, system.consumer_budget())).stats;
      states.push_back(last.wip);
    }
  }
  return states;
}

struct Served {
  std::vector<std::vector<double>> states;
  std::unique_ptr<serve::ActorServable> servable;
  std::unique_ptr<serve::BatchServer> server;
  double load_ms = 0.0;
};

std::unique_ptr<Served> set_up(const Options& options, SpanRecorder* recorder) {
  auto served = std::make_unique<Served>();
  served->states = simulate_states(options.seed);
  rl::DdpgConfig config = core::miras_msd_config().ddpg;  // 3 x 256
  config.seed = options.seed * 2862933555777941757ull + 3037000493ull;
  const std::size_t dim = served->states.front().size();
  rl::DdpgAgent agent(dim, dim, workflows::kMsdConsumerBudget, config);
  for (const std::vector<double>& s : served->states)
    agent.observe_state_only(s);
  const std::string path = options.out_dir + "/serve_open_s" +
                           std::to_string(options.seed) + ".servable";
  serve::save_servable(serve::ActorSnapshot::from_agent(agent), path);
  const std::uint64_t t0 = now_ns();
  serve::ActorSnapshot loaded = [&] {
    const ScopedSpan span(recorder, "persist.servable_load");
    return serve::load_servable(path);
  }();
  served->load_ms = static_cast<double>(now_ns() - t0) / 1e6;
  std::filesystem::remove(path);
  served->servable = std::make_unique<serve::ActorServable>(std::move(loaded));
  serve::AdmissionConfig admission;
  admission.lanes = kLanes;
  admission.max_batch = kMaxBatch;
  // Traced runs read every pass of a step back from the rings; untraced
  // runs keep the default, so peak RSS does not depend on pass counts.
  if (recorder != nullptr) admission.telemetry_capacity = 1 << 17;
  served->server =
      std::make_unique<serve::BatchServer>(*served->servable, admission);
  return served;
}

/// One generator's outcome for one step.
struct GenLog {
  std::vector<double> latency_us;  // from due time; +inf when failed
  std::vector<double> late_us;     // send time minus due time
  std::vector<double> due_s;       // due time, seconds into the step
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::size_t, std::vector<double>>> samples;
  std::vector<std::string> errors;
};

void sleep_until_ns(std::uint64_t due) {
  const timespec at{static_cast<time_t>(due / 1'000'000'000),
                    static_cast<long>(due % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr) ==
         EINTR) {
  }
}

bool valid_decision(const std::vector<double>& w, std::size_t dim) {
  if (w.size() != dim) return false;
  double sum = 0.0;
  for (const double x : w) {
    if (!std::isfinite(x) || x < 0.0) return false;
    sum += x;
  }
  return std::fabs(sum - 1.0) <= 1e-9;
}

/// Runs `generators` threads; thread g sends at the due times it draws
/// (Poisson at rate / generators) or back to back when `rate` is 0, until
/// `count` requests or `duration_s` elapse. Returns one log per generator.
std::vector<GenLog> generate(Served& served, std::size_t generators,
                             double rate, double duration_s,
                             std::size_t count, std::uint64_t seed,
                             SpanRecorder* recorder,
                             std::atomic<std::uint64_t>& request_ids) {
  std::vector<GenLog> logs(generators);
  // Reserved here, not on the generator threads, so the buffers land in
  // the main allocator arena and peak RSS does not depend on arena reuse.
  const std::size_t expected =
      count > 0 ? count
                : static_cast<std::size_t>(rate * duration_s /
                                           static_cast<double>(generators) * 1.2) +
                      64;
  for (GenLog& log : logs) {
    log.latency_us.reserve(expected);
    log.late_us.reserve(expected);
    log.due_s.reserve(expected);
  }
  const std::size_t dim = served.states.front().size();
  const std::uint64_t start = now_ns() + 2'000'000;  // common start, +2 ms
  const std::uint64_t stop = start + static_cast<std::uint64_t>(duration_s * 1e9);
  std::vector<std::thread> threads;
  threads.reserve(generators);
  for (std::size_t g = 0; g < generators; ++g) {
    threads.emplace_back([&, g] {
      // Wake at the due time itself, not up to the default 50 us later.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      GenLog& log = logs[g];
      Rng rng(seed * 1000003 + g);
      std::vector<double> weights;
      double due_offset_ns = 0.0;
      for (std::size_t i = 0; count == 0 || i < count; ++i) {
        std::uint64_t due;
        if (rate > 0.0) {
          due_offset_ns += -std::log(1.0 - rng.uniform(0.0, 1.0)) * 1e9 *
                           static_cast<double>(generators) / rate;
          due = start + static_cast<std::uint64_t>(due_offset_ns);
          if (due >= stop) break;
          sleep_until_ns(due);
        } else {
          due = std::max(now_ns(), start);
          while (now_ns() < due) {
          }
        }
        const std::size_t index = rng.next_u64() % served.states.size();
        const std::uint64_t send = now_ns();
        ++log.sent;
        bool ok = true;
        try {
          const std::uint64_t version =
              served.server->decide(served.states[index], weights);
          if (version != 1 || !valid_decision(weights, dim)) {
            ok = false;
            if (log.errors.size() < 4)
              log.errors.push_back("invalid decision for state #" +
                                   std::to_string(index));
          }
        } catch (const std::exception& e) {
          ok = false;
          if (log.errors.size() < 4) log.errors.push_back(e.what());
        }
        const std::uint64_t done = now_ns();
        if (recorder != nullptr) {
          const std::uint64_t id = request_ids.fetch_add(1) + 1;
          const std::uint32_t parent = recorder->record(
              "serve.request", due, done, 0, id);
          recorder->record("serve.decide", send, done, parent, id);
        }
        log.late_us.push_back(static_cast<double>(send - due) / 1e3);
        log.due_s.push_back(static_cast<double>(due - start) * 1e-9);
        if (!ok) {
          ++log.failed;
          log.latency_us.push_back(INFINITY);
          continue;
        }
        log.latency_us.push_back(static_cast<double>(done - due) / 1e3);
        if (log.sent % kSampleEvery == 0) log.samples.emplace_back(index, weights);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

/// Backlog grows over a step when requests near its end wait far longer to
/// be sent than requests in its middle.
bool backlog_grows(const std::vector<GenLog>& logs) {
  double mid = 0.0, tail = 0.0;
  std::size_t mid_n = 0, tail_n = 0;
  for (const GenLog& log : logs) {
    const std::size_t n = log.late_us.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i >= n * 4 / 10 && i < n * 5 / 10) mid += log.late_us[i], ++mid_n;
      if (i >= n * 9 / 10) tail += log.late_us[i], ++tail_n;
    }
  }
  if (mid_n == 0 || tail_n == 0) return false;
  return tail / tail_n > 2.0 * (mid / mid_n) + 1000.0;
}

}  // namespace

Section run_serve_open(const Options& options, SpanRecorder* recorder,
                       const Budget& budget) {
  Section s;
  const std::size_t generators =
      options.threads > kLanes ? options.threads - kLanes : 1;
  std::atomic<std::uint64_t> request_ids{0};

  std::unique_ptr<Served> served;
  std::vector<double> load_ms;
  for (int i = 0; i < (budget.minimal ? 1 : 3); ++i) {
    served.reset();  // stop the previous server before the next set-up
    const std::uint64_t t0 = now_ns();
    {
      const ScopedSpan span(recorder, "serve.setup");
      served = set_up(options, recorder);
    }
    s.setup_s.push_back(seconds_since(t0));
    load_ms.push_back(served->load_ms);
  }
  const std::shared_ptr<const serve::ActorSnapshot> snapshot =
      served->servable->acquire();

  serve::DecisionScratch scratch;
  std::vector<double> direct;
  const auto check = [&](const std::vector<GenLog>& logs) {
    for (const GenLog& log : logs) {
      s.attempted += log.sent;
      s.failed += log.failed;
      for (const std::string& e : log.errors) s.fail("serve_open: " + e);
      for (const auto& [index, weights] : log.samples) {
        snapshot->decide(served->states[index], scratch, direct);
        if (direct.size() != weights.size() ||
            std::memcmp(direct.data(), weights.data(),
                        direct.size() * sizeof(double)) != 0)
          s.fail("serve_open: served decision for state #" +
                 std::to_string(index) +
                 " differs from ActorSnapshot::decide");
      }
    }
  };

  // Saturation passes (closed loop), spread between the ladder steps so the
  // median spans the whole run.
  std::size_t pass_index = 0;
  const auto saturate = [&](std::size_t passes) {
    for (std::size_t p = 0; p < passes; ++p, ++pass_index) {
      const std::uint64_t t0 = now_ns();
      const std::vector<GenLog> logs =
          generate(*served, generators, 0.0, 1e9, kSaturationRequests,
                   options.seed + pass_index, recorder, request_ids);
      s.pass_s.push_back(seconds_since(t0) - 0.002);  // minus the start offset
      check(logs);
    }
  };
  const std::size_t passes_per_slot = budget.minimal ? 1 : kSaturationPasses;

  // Open-loop ladder.
  const double step_s =
      budget.minimal ? 1.0 : std::max(1.0, budget.seconds * 0.25);
  double max_rate = 0.0;
  std::vector<serve::TelemetryRecord> records;
  for (std::size_t k = 0; k < std::size(kLadder); ++k) {
    saturate(passes_per_slot);
    const Step& step = kLadder[k];
    const std::uint64_t step_start = now_ns();
    const std::vector<GenLog> logs =
        generate(*served, generators, step.rate, step_s, 0,
                 options.seed * 31 + k, recorder, request_ids);
    check(logs);
    std::vector<double> latency, late;
    std::uint64_t sent = 0, failed = 0;
    for (const GenLog& log : logs) {
      latency.insert(latency.end(), log.latency_us.begin(), log.latency_us.end());
      late.insert(late.end(), log.late_us.begin(), log.late_us.end());
      sent += log.sent;
      failed += log.failed;
    }
    const double p50 = percentile(latency, 50.0);
    const double p99 = percentile(latency, 99.0);
    const bool grows = backlog_grows(logs);
    if (p99 <= kP99LimitUs && !grows) max_rate = std::max(max_rate, step.rate);
    if (k == kGatedStep) {
      s.p50_us = latency;
      const std::size_t windows = static_cast<std::size_t>(
          std::max(1.0, std::floor(step_s / kWindowS)));
      s.tail_windows.assign(windows, {});
      for (const GenLog& log : logs)
        for (std::size_t i = 0; i < log.latency_us.size(); ++i)
          s.tail_windows[std::min(
                            windows - 1,
                            static_cast<std::size_t>(log.due_s[i] / kWindowS))]
              .push_back(log.latency_us[i]);
    }
    const std::string n = step.name;
    s.detail.push_back({"serve_p50_us." + n, p50, "us"});
    s.detail.push_back({"serve_p90_us." + n, percentile(latency, 90.0), "us"});
    s.detail.push_back({"serve_p99_us." + n, p99, "us"});
    s.detail.push_back({"serve.over_capacity." + n, grows ? 1.0 : 0.0, "bool"});
    s.detail.push_back(
        {"serve.gen_late_us_p99." + n, percentile(late, 99.0), "us"});
    s.detail.push_back({"serve.sent." + n, double(sent), "count"});
    s.detail.push_back({"serve.completed." + n, double(sent - failed), "count"});
    s.detail.push_back({"serve.failed." + n, double(failed), "count"});

    if (recorder != nullptr) {
      served->server->telemetry_snapshot(records);
      std::vector<double> batch, depth, pass_us;
      for (const serve::TelemetryRecord& r : records) {
        if (r.timestamp_ns < step_start) continue;
        batch.push_back(r.batch_size);
        depth.push_back(r.queue_depth);
        pass_us.push_back(static_cast<double>(r.latency_ns) / 1e3);
      }
      if (batch.empty()) batch = depth = pass_us = {0.0};
      const Tail late_tail = tail_percentile(late);
      std::cerr << "[perfbench] serve " << n << ": " << sent << " sent, "
                << batch.size() << " passes, lateness tail p"
                << late_tail.percentile << " over " << late_tail.count
                << "\n";
      s.layers.push_back({"serve.batch_mean." + n, mean(batch), "rows"});
      s.layers.push_back(
          {"serve.queue_depth_p99." + n, tail_percentile(depth).value, "count"});
      s.layers.push_back({"serve.pass_latency_us_p99." + n,
                          tail_percentile(pass_us).value, "us"});
      s.layers.push_back({"serve.gen_late_us_p99." + n, late_tail.value, "us"});
      s.layers.push_back({"serve.sent." + n, double(sent), "count"});
      s.layers.push_back({"serve.failed." + n, double(failed), "count"});
    }
  }
  saturate(passes_per_slot);
  const double saturation_per_s =
      static_cast<double>(generators * kSaturationRequests) / median(s.pass_s);
  s.detail.push_back({"serve_max_rate", max_rate, "1/s"});
  s.detail.push_back({"serve.saturation_per_s", saturation_per_s, "1/s"});
  s.detail.push_back({"serve.p99_limit_us", kP99LimitUs, "us"});
  // Digest of the served actor's decision on every observation.
  std::string decisions;
  for (const std::vector<double>& state : served->states) {
    snapshot->decide(state, scratch, direct);
    for (const double w : direct) decisions += hexfloat(w) + " ";
  }
  s.digest = fnv1a_hex(decisions);

  if (recorder != nullptr) {
    // Forward passes of the served actor: the single-request GEMV and the
    // batched forward at the largest in-flight batch (one per generator).
    std::vector<double> b1, bn;
    std::vector<double> out;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t t0 = now_ns();
      snapshot->decide(served->states[i % served->states.size()], scratch, out);
      b1.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    const std::size_t dim = snapshot->state_dim();
    nn::Tensor x(generators, dim);
    for (std::size_t r = 0; r < generators; ++r)
      snapshot->normalize_into(served->states[r].data(), &x(r, 0));
    nn::Workspace ws;
    nn::Tensor y;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t t0 = now_ns();
      snapshot->policy.predict_batch(x, ws, y);
      bn.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    s.layers.push_back({"nn.serve_fwd_b1_us", median(b1), "us"});
    s.layers.push_back({"nn.serve_fwd_bN_us", median(bn), "us"});
    s.layers.push_back({"persist.servable_load_ms", median(load_ms), "ms"});
  }
  return s;
}

}  // namespace perfbench
