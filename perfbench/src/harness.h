// Shared plumbing of the benchmark runner: options, the per-workload
// section result, and small statistics/digest helpers.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// nproc: serve_open's threads, and the pools of eval_ligo's check and of
  /// the traced probes. train_msd and eval_ligo themselves run on one
  /// thread: on a shared host a pool's barriers wait for whichever vCPU the
  /// host paused, so pooled timings measure the host (NOTES.md).
  std::size_t threads = 1;
  /// Where traces and detail files land (inside the checkout).
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload section measured.
struct Section {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Samples behind the end-to-end metrics (see NOTES.md for what a pass
  // is in each workload). With scaled_cpu (train_msd, eval_ligo) set-ups
  // and passes are scaled CPU time (scaled_s, each with the reference job
  // run next to it); otherwise (serve_open) they are wall time, and the
  // latency samples below are reported too.
  bool scaled_cpu = false;
  std::vector<double> reference_s;  // every reference-job run
  std::vector<double> setup_s;
  std::vector<double> pass_s;
  std::vector<double> p50_us;  // unit latencies the median is taken over
  /// Unit latencies in windows (slices of a serving step); the tail metric
  /// is the median over windows of each window's p90, so one scheduler
  /// hiccup on a shared host moves one window, not the result.
  std::vector<std::vector<double>> tail_windows;

  /// The workload's own figures under the names the notes use (train_s,
  /// eval_windows_per_s, serve_p99_us.high, ...): printed and written to
  /// the detail file, not part of the result line.
  std::vector<Metric> detail;
  /// Per-layer metrics (traced sections only).
  std::vector<Metric> layers;
  std::string digest;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// How long a section measures, and whether it is the workload under test
/// or a single-pass companion in a traced run.
struct Budget {
  double seconds = 10.0;
  bool minimal = false;
};

/// Pool for `threads` participants: threads - 1 workers plus the caller,
/// or none at one thread.
std::unique_ptr<miras::common::ThreadPool> make_pool(std::size_t threads);

double median(std::vector<double> values);
/// Nearest-rank percentile; 0 for no samples.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double seconds_since(std::uint64_t start_ns);

/// CPU time of the whole process (every thread), in ns. The kernel leaves
/// out time the process waited for a CPU, in the guest or (steal time) on
/// the host, so on a shared host it is steadier than wall time.
std::uint64_t process_cpu_ns();
/// CPU time of the calling thread, in ns.
std::uint64_t thread_cpu_ns();

/// CPU seconds the calling thread takes for a fixed reference job (~25 ms):
/// 800k dependent loads over a 256 KiB random cycle, then 3M rounds of
/// xorshift with data-dependent updates of a 16 KiB table. A shared host's
/// speed drifts by up to 1.4x within minutes, and this job's time drifts
/// with both workloads' (NOTES.md).
double reference_cpu_s();
/// Median of `count` runs of the reference job; every run is appended to
/// `all`.
double reference_median_s(std::size_t count, std::vector<double>* all);
/// About what the reference job takes on the host the benchmark was tuned
/// on.
constexpr double kReferenceNominalS = 0.025;
/// Across the tuning host's slow and fast stretches, both workloads' CPU
/// time moved as about the 1.5th power of the reference job's (NOTES.md).
constexpr double kReferenceExponent = 1.5;
/// CPU seconds scaled to a host on which the reference job takes
/// kReferenceNominalS, given the job's time measured next to them.
inline double scaled_s(double cpu_s, double reference_s) {
  return cpu_s * std::pow(kReferenceNominalS / reference_s, kReferenceExponent);
}

/// Exact text of a double ("%a").
std::string hexfloat(double value);

/// FNV-1a over a text, as 16 hex digits.
std::string fnv1a_hex(const std::string& text);

/// Workloads (one translation unit each).
Section run_train_msd(const Options& options, SpanRecorder* recorder,
                      const Budget& budget);
Section run_eval_ligo(const Options& options, SpanRecorder* recorder,
                      const Budget& budget);
Section run_serve_open(const Options& options, SpanRecorder* recorder,
                       const Budget& budget);
/// Kernel and dispatch probes at fixed shapes (traced runs only).
Section run_probes(const Options& options);

/// The train_msd digest on a shortened run, at the given thread count.
std::string train_msd_short_digest(std::uint64_t seed, std::size_t threads);

}  // namespace perfbench
