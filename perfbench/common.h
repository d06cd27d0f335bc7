// Shared plumbing of the benchmark driver: run options, the metric record a
// workload returns, percentiles, clocks and process gauges.

#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for trace files and per-run storage.
  std::string out_dir = ".bench_build/out";
};

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main(): the operation counts, the outcome of
/// its correctness checks, and its metrics by name.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;  // failed checks, printed to stderr
  std::map<std::string, Metric> metrics;

  void Check(const std::string& error) {
    if (error.empty()) return;
    correct = false;
    errors.push_back(error);
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

using Clock = std::chrono::steady_clock;

/// Start of the process, taken at the top of main(); set-up times count from it.
inline Clock::time_point& ProcessStart() {
  static Clock::time_point start = Clock::now();
  return start;
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `v`; sorts a copy. 0 when empty.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

inline double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

/// Operations per second over consecutive windows of `window` operations
/// (latencies in us), median over the windows: the sustained rate, which a few
/// stalled operations cannot drag down the way they drag a mean.
inline double WindowedRate(const std::vector<double>& latency_us, size_t window) {
  std::vector<double> rates;
  for (size_t i = 0; i + window <= latency_us.size(); i += window) {
    double us = 0;
    for (size_t k = i; k < i + window; ++k) us += latency_us[k];
    rates.push_back(static_cast<double>(window) * 1e6 / us);
  }
  return Median(rates);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Peak resident set size of this process, MiB.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Current number of threads of this process (the Threads: line of
/// /proc/self/status), or 0 when it cannot be read.
inline int ThreadsNow() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

}  // namespace perfbench
