#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/json.h"
#include "perf/parallel.h"

namespace treeaa::bench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(samples.size())));
  const std::size_t index =
      std::clamp<std::size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

void Report::metric(std::string name, double value, std::string unit,
                    std::size_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{std::move(name), value, std::move(unit), samples};
      return;
    }
  }
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  if (failed_ < attempted_) {
    ++failed_;
  } else {
    op(false, what);
    return;
  }
  if (failures_.size() < 8) failures_.push_back(what);
}

void Report::note(std::string key, std::string value) {
  notes_.emplace_back(std::move(key), std::move(value));
}

std::string Report::text() const {
  std::ostringstream out;
  for (const auto& [key, value] : notes_) {
    out << "  " << key << ": " << value << "\n";
  }
  char line[160];
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof(line), "  %-32s %14.6g %-8s", m.name.c_str(),
                  m.value, m.unit.c_str());
    out << line;
    if (m.samples > 0) out << " (n=" << m.samples << ")";
    out << "\n";
  }
  const double fail_frac =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::snprintf(line, sizeof(line), "  %-32s %14.6g %-8s (%llu of %llu)",
                "fail_frac", fail_frac, "ratio",
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
  out << line << "\n";
  for (const std::string& f : failures_) out << "  FAILED: " << f << "\n";
  return out.str();
}

std::string Report::json(const Options& opts) const {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("workload");
  w.value(std::string_view(opts.workload));
  w.key("seed");
  w.value(opts.seed);
  w.key("traced");
  w.value(opts.traced);
  w.key("correct");
  w.value(failed_ == 0 && attempted_ > 0);
  w.key("attempted");
  w.value(attempted_);
  w.key("failed");
  w.value(failed_);
  w.key("outputs_hash");
  w.value(std::string_view(std::to_string(outputs_hash)));
  w.key("notes");
  w.begin_object();
  for (const auto& [key, value] : notes_) {
    w.key(key);
    w.value(std::string_view(value));
  }
  w.end_object();
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics_) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(std::string_view(m.unit));
    w.key("samples");
    w.value(static_cast<std::uint64_t>(m.samples));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return out;
}

void latency_metrics(Report& report, const std::vector<double>& op_ms,
                     const std::string& suffix) {
  report.metric("op_ms_p50" + suffix, percentile(op_ms, 50.0), "ms",
                op_ms.size());
  report.metric("op_ms_p99" + suffix, percentile(op_ms, 99.0), "ms",
                op_ms.size());
}

double peak_rss_mb() {
  // VmHWM, not ru_maxrss: Linux carries ru_maxrss over from the parent
  // across fork and exec, so a small child would report the footprint of
  // the run.py process that started it.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void host_notes(Report& report, std::size_t lanes) {
  const std::size_t cpus = std::thread::hardware_concurrency();
  const std::size_t workers =
      lanes <= 1 ? 1 : perf::WorkerPool::default_workers(lanes);
  report.note("host_cpus", std::to_string(cpus));
  report.note("workers", std::to_string(workers));
  report.metric("host.cpus", static_cast<double>(cpus), "count");
  report.metric("host.workers", static_cast<double>(workers), "count");
}

}  // namespace treeaa::bench
