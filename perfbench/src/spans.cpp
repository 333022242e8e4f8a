#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

// 1-based nearest rank of percentile q among n samples; the epsilon keeps
// q * n / 100 from rounding up past an exact integer (99.9% of 10000).
double nearest_rank(double q, std::size_t n) {
  return std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9);
}

// Innermost open ScopedSpan on this thread (0 = none).
thread_local std::uint32_t t_open_span = 0;

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string Span::layer() const { return name.substr(0, name.find('.')); }

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity) {}

std::uint32_t SpanRecorder::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

std::uint32_t SpanRecorder::record(std::string name, std::uint64_t start_ns,
                                   std::uint64_t end_ns, std::uint32_t parent,
                                   std::uint64_t request, std::uint32_t id) {
  Span span;
  span.parent = parent == kAutoParent ? t_open_span : parent;
  span.request = request;
  span.thread = this_thread_index();
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  const std::lock_guard<std::mutex> lock(mutex_);
  span.id = id != 0 ? id : next_id_++;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return span.id;
  }
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t SpanRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::size_t SpanRecorder::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       std::uint32_t parent, std::uint64_t request)
    : recorder_(recorder), name_(name), request_(request) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->next_id();
  saved_open_ = t_open_span;
  parent_ = parent == SpanRecorder::kAutoParent ? t_open_span : parent;
  t_open_span = id_;
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  const std::uint64_t end = now_ns();
  recorder_->record(name_, start_ns_, end, parent_, request_, id_);
  t_open_span = saved_open_;
}

std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Children's intervals, clipped to the parent, grouped per parent.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> covered(
      spans.size());
  for (const Span& child : spans) {
    if (child.parent == 0) continue;
    const auto it = index_of.find(child.parent);
    if (it == index_of.end()) continue;
    const Span& parent = spans[it->second];
    const std::uint64_t lo = std::max(child.start_ns, parent.start_ns);
    const std::uint64_t hi = std::min(child.end_ns, parent.end_ns);
    if (lo < hi) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t union_ns = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - union_ns;
  }
  return self;
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  const double rank = nearest_rank(q, sorted.size());
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

Tail tail_percentile(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("tail of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  Tail tail;
  tail.count = n;
  tail.percentile = 50.0;
  for (const double q : {99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(n) - nearest_rank(q, n) >= 10.0) {
      tail.percentile = q;
      break;
    }
  }
  tail.value = percentile_sorted(samples, tail.percentile);
  return tail;
}

void write_chrome_trace(const std::vector<Span>& spans, std::ostream& out) {
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  std::uint64_t origin = ~std::uint64_t{0};
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  out << std::fixed << std::setprecision(3)
      << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (i != 0) out << ",\n";
    out << "{\"name\":";
    write_json_string(out, span.name);
    out << ",\"cat\":";
    write_json_string(out, span.layer());
    out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
        << ",\"ts\":" << static_cast<double>(span.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(span.duration_ns()) / 1e3
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request
        << ",\"self_us\":" << static_cast<double>(self[i]) / 1e3 << "}}";
  }
  out << "]}\n";
}

}  // namespace perfbench
