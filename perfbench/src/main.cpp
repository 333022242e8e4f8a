// Benchmark runner: runs one workload (train_msd, eval_ligo, serve_open)
// and prints the result line run.py relays. See perfbench/NOTES.md.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--out DIR]
//   perfbench_runner --selftest-digest
//
// --trace 0 measures the workload untraced and reports its end-to-end
// metrics. --trace 1 measures it again with spans on (for the tracing
// overhead), runs one pass of each other workload and the kernel probes so
// every layer gets its numbers, writes a Chrome trace, and reports the
// per-layer metrics. Exit status is non-zero when an output check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"

namespace perfbench {
namespace {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";  // e.g. a tail over failed requests
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void write_metrics(std::ostream& out, const std::vector<Metric>& metrics) {
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": "
        << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}";
}

double windowed_p90(const Section& s) {
  std::vector<double> tails;
  for (const std::vector<double>& window : s.tail_windows)
    if (!window.empty()) tails.push_back(percentile(window, 90.0));
  return median(tails);
}

std::vector<Metric> end_to_end(const Section& s) {
  if (s.scaled_cpu)
    return {{"setup_s", median(s.setup_s), "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
            {"pass_scaled_s", median(s.pass_s), "s"}};
  return {{"setup_s", median(s.setup_s), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"pass_s", median(s.pass_s), "s"},
          {"latency_p50_us", percentile(s.p50_us, 50.0), "us"},
          {"latency_p90_us", windowed_p90(s), "us"}};
}

Section run_workload(const std::string& name, const Options& options,
                     SpanRecorder* recorder, const Budget& budget) {
  if (name == "train_msd") return run_train_msd(options, recorder, budget);
  if (name == "eval_ligo") return run_eval_ligo(options, recorder, budget);
  return run_serve_open(options, recorder, budget);
}

void print_section(const std::string& name, const Section& s) {
  std::cerr << "[perfbench] " << name << ": attempted=" << s.attempted
            << " failed=" << s.failed << " correct=" << s.correct
            << " digest=" << s.digest << "\n";
  if (!s.pass_s.empty()) {
    std::cerr << "[perfbench]   pass times (s) over " << s.pass_s.size()
              << " passes:";
    for (const double p : s.pass_s) std::cerr << " " << p;
    std::cerr << "\n";
  }
  for (const Metric& m : s.detail)
    std::cerr << "[perfbench]   " << m.name << " = " << number(m.value)
              << " " << m.unit << "\n";
  for (const std::string& e : s.errors)
    std::cerr << "[perfbench]   CHECK FAILED: " << e << "\n";
}

int usage() {
  std::cerr << "usage: perfbench_runner --workload train_msd|eval_ligo|"
               "serve_open --seed N --seconds S --trace 0|1 [--out DIR] | "
               "--selftest-digest\n";
  return 2;
}

int selftest_digest() {
  const std::size_t threads =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  const std::string one = train_msd_short_digest(3, 1);
  const std::string many = train_msd_short_digest(3, threads);
  std::cout << "train_msd short digest: threads=1 " << one << ", threads="
            << threads << " " << many << "\n";
  return one == many ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest-digest") return selftest_digest();
    if (!has_value) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  const std::vector<std::string> workloads{"train_msd", "eval_ligo",
                                           "serve_open"};
  if (std::find(workloads.begin(), workloads.end(), options.workload) ==
          workloads.end() ||
      options.seconds <= 0.0)
    return usage();
  std::filesystem::create_directories(options.out_dir);

  Section main_section;
  std::vector<Metric> result_metrics;
  std::vector<std::pair<std::string, Section>> sections;
  try {
    if (!options.trace) {
      main_section = run_workload(options.workload, options, nullptr,
                                  Budget{options.seconds, false});
      result_metrics = end_to_end(main_section);
      sections.emplace_back(options.workload, main_section);
    } else {
      SpanRecorder recorder;
      for (const std::string& name : workloads) {
        const bool selected = name == options.workload;
        Section s = run_workload(name, options, &recorder,
                                 Budget{options.seconds, !selected});
        result_metrics.insert(result_metrics.end(), s.layers.begin(),
                              s.layers.end());
        if (selected) main_section = s;
        sections.emplace_back(name, std::move(s));
      }
      Section probes = run_probes(options);
      result_metrics.insert(result_metrics.end(), probes.layers.begin(),
                            probes.layers.end());
      sections.emplace_back("probes", std::move(probes));
      const std::string trace_path = options.out_dir + "/trace_" +
                                     options.workload + "_s" +
                                     std::to_string(options.seed) + ".json";
      std::ofstream trace_out(trace_path);
      write_chrome_trace(recorder.spans(), trace_out);
      std::cerr << "[perfbench] " << recorder.size() << " spans ("
                << recorder.dropped() << " dropped past the cap) -> "
                << trace_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "[perfbench] error: " << e.what() << "\n";
    return 1;
  }

  bool correct = true;
  for (const auto& [name, s] : sections) {
    print_section(name, s);
    correct = correct && s.correct;
  }

  // Detail file: the workload's own figures, the traced end-to-end values
  // (for the tracing overhead) and every section's digest.
  const std::string detail_path =
      options.out_dir + "/detail_" + options.workload + "_s" +
      std::to_string(options.seed) + "_t" + (options.trace ? "1" : "0") +
      ".json";
  {
    std::ofstream out(detail_path);
    out << "{\"workload\": \"" << options.workload
        << "\", \"seed\": " << options.seed
        << ", \"trace\": " << (options.trace ? 1 : 0)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"end_to_end\": ";
    write_metrics(out, end_to_end(main_section));
    out << ", \"detail\": ";
    write_metrics(out, main_section.detail);
    out << ", \"digests\": {";
    for (std::size_t i = 0; i < sections.size(); ++i)
      out << (i ? ", " : "") << "\"" << sections[i].first << "\": \""
          << sections[i].second.digest << "\"";
    out << "}}\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << main_section.attempted
            << ", \"failed\": " << main_section.failed << ", \"metrics\": ";
  write_metrics(std::cout, result_metrics);
  std::cout << "}" << std::endl;
  return correct ? 0 : 3;
}
