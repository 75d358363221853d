// Shared plumbing of the perfbench binary: options, the result record every
// workload fills, clocks, order statistics and process memory.
//
// Each workload returns one Result. main() prints it as one JSON object on
// the last line of stdout; perfbench/run.py checks that object against
// BENCHMARK.json and re-prints it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny instances, short phases: exercises every code path in seconds.
  bool smoke = false;
  /// Directory (relative to the working directory) for traces, the daemon
  /// socket and its log. Created by run.py.
  std::string out_dir = ".";
  /// Path of the udwnd binary (svc-mix only).
  std::string udwnd;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// (name, value, unit) in report order.
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Context printed beside the metrics: (key, JSON literal).
  std::vector<std::pair<std::string, std::string>> detail;
  std::vector<std::string> errors;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string json_literal) {
    detail.emplace_back(std::move(key), std::move(json_literal));
  }
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for
/// an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
double peak_rss_mb(int pid = 0);

/// splitmix64 finaliser: decorrelated sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

std::string json_string(const std::string& s);
/// Shortest round-trip decimal; non-finite values print as null.
std::string json_number(double value);
std::string hex64(std::uint64_t value);

Result run_engine_workload(const Options& options);
Result run_svc_workload(const Options& options);

}  // namespace perfbench
