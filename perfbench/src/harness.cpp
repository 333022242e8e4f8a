#include "harness.h"

#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>

namespace perfbench {

std::unique_ptr<miras::common::ThreadPool> make_pool(std::size_t threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<miras::common::ThreadPool>(threads - 1);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, q);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

namespace {
std::uint64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Inputs of the reference job, built once.
struct ReferenceJob {
  std::vector<std::uint32_t> next;   // one random cycle over 256 KiB
  std::vector<std::uint32_t> table;  // 16 KiB of counters

  ReferenceJob() : next(1u << 16), table(1u << 12) {
    std::vector<std::uint32_t> order(next.size());
    std::iota(order.begin(), order.end(), 0u);
    std::uint64_t x = 88172645463325252ull;
    for (std::size_t i = order.size() - 1; i > 1; --i) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      std::swap(order[i], order[1 + x % i]);
    }
    for (std::size_t i = 0; i < order.size(); ++i)
      next[order[i]] = order[(i + 1) % order.size()];
  }
};
}  // namespace

std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double reference_cpu_s() {
  static ReferenceJob job;
  const std::uint64_t t0 = thread_cpu_ns();
  std::uint32_t p = 0;
  for (int i = 0; i < 800000; ++i) p = job.next[p];
  std::uint64_t x = 12345 + p;
  for (int i = 0; i < 3000000; ++i) {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    if ((x & 7) < 3)
      job.table[x & 4095] += 1;
    else
      job.table[(x >> 12) & 4095] ^= static_cast<std::uint32_t>(x);
  }
  const std::uint64_t t1 = thread_cpu_ns();
  return static_cast<double>(t1 - t0) * 1e-9;
}

double reference_median_s(std::size_t count, std::vector<double>* all) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < count; ++i) samples.push_back(reference_cpu_s());
  all->insert(all->end(), samples.begin(), samples.end());
  return median(std::move(samples));
}

std::string hexfloat(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, hash);
  return buffer;
}

}  // namespace perfbench
