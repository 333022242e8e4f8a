// Span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around calls into the
// program's public entry points; nothing inside src/ is instrumented. Each
// span carries a name ("layer.operation"), start and end on the steady
// clock, the id of the span that caused it, and an optional per-request id.
// Spans stay in memory until the run ends; self time (duration minus the
// part of the interval its children cover) and Chrome trace-event JSON
// (opens in Perfetto / chrome://tracing) are computed from the stored set.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
std::uint64_t now_ns();

struct Span {
  std::uint32_t id = 0;      // 1-based
  std::uint32_t parent = 0;  // 0 = root
  std::uint64_t request = 0; // 0 = not tied to a request
  std::uint32_t thread = 0;  // recorder-assigned thread index
  std::string name;          // "layer.operation"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
  /// Text before the first '.', e.g. "core" for "core.iteration".
  std::string layer() const;
};

class SpanRecorder {
 public:
  /// Parent sentinel: use the innermost open ScopedSpan on this thread.
  static constexpr std::uint32_t kAutoParent = 0xffffffffu;

  /// Keeps at most `capacity` spans; later ones are counted in dropped()
  /// instead, so a long traced run cannot exhaust memory.
  explicit SpanRecorder(std::size_t capacity = 1 << 20);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Reserves an id for a span that will be recorded later.
  std::uint32_t next_id();

  /// Stores a finished span (or drops it when full). `id` 0 draws a fresh
  /// id. Safe from any thread.
  std::uint32_t record(std::string name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint32_t parent,
                       std::uint64_t request = 0, std::uint32_t id = 0);

  /// Copy of every span recorded so far, in recording order.
  std::vector<Span> spans() const;
  std::size_t size() const;
  std::size_t dropped() const;

 private:
  mutable std::mutex mutex_;  // guards everything below
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::uint32_t next_id_ = 1;
};

/// RAII span on the current thread. With a null recorder it records
/// nothing and costs one branch, so untraced runs share the traced code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             std::uint32_t parent = SpanRecorder::kAutoParent,
             std::uint64_t request = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  const char* name_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::uint32_t saved_open_ = 0;  // this thread's open span before this one
  std::uint64_t request_ = 0;
  std::uint64_t start_ns_ = 0;
};

/// Self time of every span, indexed like `spans`: its duration minus the
/// union of its children's intervals clipped to its own. Children that
/// overlap one another (parallel work) are counted once.
std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans);

/// Nearest-rank percentile (q in [0, 100]) of `sorted` (ascending, non-empty).
double percentile_sorted(const std::vector<double>& sorted, double q);

struct Tail {
  double percentile = 0.0;  // which percentile was reported
  double value = 0.0;
  std::size_t count = 0;    // samples it was taken over
};

/// The highest of p99.9 / p99 / p90 / p50 that has at least ten samples
/// beyond its nearest rank; p50 (or the only sample) when none has.
/// `samples` need not be sorted. Requires at least one sample.
Tail tail_percentile(std::vector<double> samples);

/// Chrome trace-event JSON ("X" complete events, microseconds) with each
/// span's id, parent, request id and self time in `args`.
void write_chrome_trace(const std::vector<Span>& spans, std::ostream& out);

}  // namespace perfbench
