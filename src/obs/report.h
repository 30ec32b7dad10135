// Machine-readable run reports: the per-round convergence and traffic
// series every experiment in this repository used to recompute ad hoc.
//
// A RunReport is filled by the harness runners (and core::run_tree_aa) when
// an obs::Hooks with a report sink is passed in, and serializes to a stable
// JSON schema ("treeaa.run_report/1", documented in docs/OBSERVABILITY.md).
// The report is deterministic given the protocol, inputs and adversary —
// re-running the identical configuration reproduces it byte for byte — with
// one documented exception: the wall-clock "timing" section, which is
// excluded from the canonical form (to_json(false)) and opt-in elsewhere.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "perf/parallel.h"
#include "sim/stats.h"

namespace treeaa::sim {
class Tracer;
}

namespace treeaa::obs {

class SpanSink;

/// One synchronous round as observed by the probes. Engine-level fields are
/// always present; protocol-level fields are engaged only when the driven
/// protocol exposes the matching probe (see docs/OBSERVABILITY.md).
struct RoundSample {
  Round round = 0;
  std::uint64_t honest_messages = 0;
  std::uint64_t honest_bytes = 0;
  std::uint64_t adversary_messages = 0;
  std::uint64_t adversary_bytes = 0;
  /// Cumulative corruptions up to and including this round.
  std::uint32_t corrupt_total = 0;

  /// Spread of the honest parties' current estimates: max-min of the real
  /// values (RealAA / PathsFinder indices) or the tree diameter of the
  /// vertex estimates (TreeAA).
  std::optional<double> value_diameter;
  /// Vertices in the convex hull of the honest current estimates (vertex
  /// protocols only).
  std::optional<std::uint64_t> hull_size;
  /// Max over honest parties of Byzantine parties proven so far.
  std::optional<std::uint64_t> detected_faulty;
  /// Gradecast grade distribution {grade 0, 1, 2} summed over honest
  /// (party, leader) pairs; engaged on iteration-end rounds of the BDH
  /// engine only.
  std::optional<std::array<std::uint64_t, 3>> grades;
};

/// An honest party proved a leader Byzantine (RealAA's detect-and-deny
/// mechanism). `round` is the iteration-end round of the detection.
struct DetectionEvent {
  Round round = 0;
  PartyId detector = kNoParty;
  PartyId leader = kNoParty;
};

struct RunReport {
  std::string protocol;  // "real_aa", "tree_aa", "paths_finder", ...
  std::size_t n = 0;
  std::size_t t = 0;
  Round rounds = 0;

  /// Extra protocol parameters, as (key, rendered-JSON-value) in insertion
  /// order — use the add_param overloads.
  std::vector<std::pair<std::string, std::string>> params;

  std::vector<PartyId> corrupt;

  // Traffic totals (mirror of sim::TrafficStats).
  std::uint64_t honest_messages = 0;
  std::uint64_t honest_bytes = 0;
  std::uint64_t adversary_messages = 0;
  std::uint64_t adversary_bytes = 0;

  std::vector<RoundSample> per_round;
  std::vector<DetectionEvent> detections;

  /// Outcome facts (validity verdicts, output ranges, path statistics) as
  /// (key, rendered-JSON-value) in insertion order.
  std::vector<std::pair<std::string, std::string>> outcome;

  /// Deterministic protocol metrics (path-length histograms, clamp
  /// counters, ...).
  Registry metrics;
  /// Wall-clock probes ("round_wall_ns", "run_wall_ns"). The only
  /// non-reproducible section; excluded by to_json(false).
  Registry timing;

  void add_param(std::string key, std::string_view v);
  void add_param(std::string key, double v);
  void add_param(std::string key, std::uint64_t v);
  void add_param(std::string key, bool v);
  /// Without this overload a string literal would bind to bool.
  void add_param(std::string key, const char* v) {
    add_param(std::move(key), std::string_view(v));
  }
  void add_outcome(std::string key, std::string_view v);
  void add_outcome(std::string key, double v);
  void add_outcome(std::string key, std::uint64_t v);
  void add_outcome(std::string key, bool v);
  void add_outcome(std::string key, const char* v) {
    add_outcome(std::move(key), std::string_view(v));
  }

  /// Copies n/t/rounds/corrupt/traffic totals out of a finished run.
  void set_totals(std::size_t n_parties, std::size_t t_max, Round rounds_run,
                  std::vector<PartyId> corrupt_parties,
                  const sim::TrafficStats& traffic);

  void write_json(JsonWriter& w, bool include_timings = true) const;
  [[nodiscard]] std::string to_json(bool include_timings = true) const;
};

/// Optional observability sinks accepted by every runner. All null by
/// default: a detached Hooks (or a null Hooks pointer) makes the runner
/// take the exact pre-observability code path — single engine.run(), no
/// tracer, no clock reads.
struct Hooks {
  /// Filled with the per-round series, totals, detections and timing.
  RunReport* report = nullptr;
  /// Receives every engine event (transcripts; chained after the probes).
  sim::Tracer* tracer = nullptr;
  /// Timeline sink for causal spans and flow edges (Perfetto export). Span
  /// files carry wall-clock timestamps and are opt-in like `timing`;
  /// attaching one never changes report or transcript bytes.
  SpanSink* spans = nullptr;

  [[nodiscard]] bool active() const {
    return report != nullptr || tracer != nullptr || spans != nullptr;
  }
};

/// Records the per-run delta of a worker pool's dispatch counters as
/// `pool_*` gauges in `timing`: dispatches, notify/spin wakeups, condvar
/// sleeps, and per-lane item totals (docs/PERF.md). Pools are recycled
/// across engines, so the driver snapshots `baseline` at engine
/// construction and this reports the difference. The spin/sleep split is
/// scheduling-dependent, hence the timing registry — never the canonical
/// report. No-op when `pool` is null (serial engine).
void fill_pool_gauges(Registry& timing, const perf::WorkerPool* pool,
                      const perf::WorkerPool::DispatchStats& baseline);

}  // namespace treeaa::obs
