// Shared plumbing of the end-to-end benchmark (treeaa_bench): exact sample
// statistics, the report a workload run fills, and the op-pool helpers the
// workloads share. See e2e_bench/README.md for what each workload measures
// and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace treeaa::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] inline double ns_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Exact nearest-rank percentile of raw samples: the smallest sample with at
/// least q% of all samples at or below it. q in (0, 100]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// FNV-1a, folded incrementally: the outputs witness two runs compare.
class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool traced = false;
  /// Where a traced run writes its Chrome trace-event JSON.
  std::string span_path;
  /// AF_UNIX socket path for the in-process serve daemon.
  std::string socket_path;
};

/// Everything one workload run reports. Metrics keep insertion order;
/// run.py picks the end-to-end or per-layer set out of them.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  // raw samples behind the value (0 = n/a)
  };

  void metric(std::string name, double value, std::string unit,
              std::size_t samples = 0);

  /// Counts one attempted operation; a failed one also records `what`.
  void op(bool ok, const std::string& what);
  /// A check on operations already counted: a failure marks one of them
  /// failed.
  void check(bool ok, const std::string& what);

  /// Free-form facts printed beside the metrics (host shape, fault plan).
  void note(std::string key, std::string value);

  /// Hash over the op pool's outputs (tree_serial and tree_lanes4 on one
  /// seed must agree).
  std::uint64_t outputs_hash = 0;

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Human-readable table (one metric per line, unit and sample count).
  [[nodiscard]] std::string text() const;
  /// One-line JSON document for run.py.
  [[nodiscard]] std::string json(const Options& opts) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> failures_;  // first few, for the log
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Runs `make` kSetupReps times, destroying the previous fixture before
/// building the next, and reports the median build time as setup_s. The
/// first build includes process-wide one-time costs (pool threads, page
/// faults); the median is the steady cost of setting a workload up.
template <typename Fixture>
std::unique_ptr<Fixture> timed_setup(
    Report& report, const std::function<std::unique_ptr<Fixture>()>& make) {
  constexpr int kSetupReps = 3;
  std::vector<double> seconds;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < kSetupReps; ++i) {
    fixture.reset();
    const auto start = Clock::now();
    fixture = make();
    seconds.push_back(ms_between(start, Clock::now()) / 1000.0);
  }
  report.metric("setup_s", median(seconds), "s", seconds.size());
  return fixture;
}

/// Latency metrics over raw per-op samples: op_ms_p50 and op_ms_p99 (exact
/// nearest rank), with `suffix` appended to the names.
void latency_metrics(Report& report, const std::vector<double>& op_ms,
                     const std::string& suffix = "");

/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Host CPU count and the worker count a pool with `lanes` lanes runs on.
void host_notes(Report& report, std::size_t lanes);

// --- Workloads -----------------------------------------------------------

void run_tree_serial(const Options& opts, Report& report);
void run_tree_lanes4(const Options& opts, Report& report);
void run_realaa_wide(const Options& opts, Report& report);
void run_net_deploy(const Options& opts, Report& report);
void run_serve_open(const Options& opts, Report& report);

}  // namespace treeaa::bench
