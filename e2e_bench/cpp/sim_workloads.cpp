// The simulator workloads: closed loops from one caller thread over a fixed
// pool of seeded ops.
//
//   tree_serial  core::run_tree_aa, n=7, t=2, one lane, on 4096-vertex
//                random and caterpillar trees; split (Fekete) adversary on
//                even ops, none on odd ops.
//   tree_lanes4  the identical op pool at four engine lanes.
//   realaa_wide  harness::run_real_aa, wide n, four lanes, extreme-input
//                puppets on the t victims.
//
// Each pool op is executed many times in the window; every repeat must
// reproduce the op's first result exactly (outputs, messages, bytes,
// rounds), and each op's agreement verdict is checked once after the window.
#include <algorithm>
#include <bit>
#include <memory>
#include <optional>

#include "bench.h"
#include "common/rng.h"
#include "core/api.h"
#include "core/paths_finder.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "layers.h"
#include "obs/report.h"
#include "perf/tree_index.h"
#include "sim/strategies.h"
#include "trees/generators.h"

namespace treeaa::bench {

namespace {

/// What one execution of a pool op produced; repeats must reproduce it.
struct OpResult {
  std::uint64_t outputs_hash = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t rounds = 0;

  friend bool operator==(const OpResult&, const OpResult&) = default;
};

OpResult summarize(std::uint64_t outputs_hash, const sim::TrafficStats& traffic,
                   Round rounds) {
  return OpResult{outputs_hash, traffic.total_messages(), traffic.total_bytes(),
                  rounds};
}

/// Runs every pool op once, so caches, allocator arenas and the worker pool
/// are warm before the window opens.
template <typename Pool>
void warm_up(Pool& pool) {
  for (std::size_t i = 0; i < pool.size(); ++i) {
    double ms = 0;
    (void)pool.run(i, pool.lanes(), nullptr, &ms);
  }
}

// --- TreeAA pool -------------------------------------------------------------

constexpr std::size_t kTreeParties = 7;
constexpr std::size_t kTreeFaults = 2;
constexpr std::size_t kTreeVertices = 4096;
// Even split of the pool's shape, independent of the seed: half random
// trees, half caterpillars (legs cycling 1..3), split adversary on even ops.
constexpr std::size_t kTreePool = 24;

class TreePool {
 public:
  TreePool(std::uint64_t seed, std::size_t lanes) : lanes_(lanes) {
    Rng rng(seed);
    Rng tree_rng = rng.fork(1);
    Rng input_rng = rng.fork(2);
    for (std::size_t i = 0; i < kTreePool; ++i) {
      Op op;
      if ((i / 2) % 2 == 0) {
        op.tree = std::make_shared<LabeledTree>(
            make_random_tree(kTreeVertices, tree_rng));
      } else {
        const std::size_t legs = 1 + (i / 4) % 3;
        op.tree = std::make_shared<LabeledTree>(
            make_caterpillar(kTreeVertices / (legs + 1), legs));
      }
      op.inputs =
          harness::random_vertex_inputs(*op.tree, kTreeParties, input_rng);
      op.split = i % 2 == 0;
      if (op.split) {
        op.plan.kind = harness::AdversaryKind::kSplit;
        // The lower-bound argument's static corruption set: the last t.
        for (std::size_t k = 0; k < kTreeFaults; ++k) {
          op.plan.victims.push_back(
              static_cast<PartyId>(kTreeParties - 1 - k));
        }
        op.plan.split_config = core::paths_finder_config(
            *op.tree, kTreeParties, kTreeFaults, {});
      }
      ops_.push_back(std::move(op));
    }
    warm_up(*this);
  }

  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  [[nodiscard]] std::size_t parties() const { return kTreeParties; }
  [[nodiscard]] std::size_t lanes() const { return lanes_; }

  /// One op; `ms` receives the time of the run_tree_aa call alone.
  OpResult run(std::size_t i, std::size_t threads, const obs::Hooks* hooks,
               double* ms) {
    Op& op = ops_[i];
    auto adversary = op.split ? harness::make_adversary(op.plan) : nullptr;
    const auto start = Clock::now();
    const core::RunResult run =
        core::run_tree_aa(*op.tree, op.inputs, kTreeFaults, {},
                          std::move(adversary), hooks,
                          sim::EngineOptions{threads});
    *ms = ms_between(start, Clock::now());
    Fnv hash;
    for (const auto& out : run.outputs) {
      hash.add(out.has_value() ? *out : ~0ull);
    }
    op.outputs = run.outputs;
    return summarize(hash.value(), run.traffic, run.rounds);
  }

  /// Validity and 1-Agreement of the op's last outputs.
  [[nodiscard]] bool check(std::size_t i) const {
    const Op& op = ops_[i];
    std::vector<VertexId> honest_inputs;
    std::vector<VertexId> honest_outputs;
    for (std::size_t p = 0; p < op.outputs.size(); ++p) {
      if (!op.outputs[p].has_value()) continue;
      honest_inputs.push_back(op.inputs[p]);
      honest_outputs.push_back(*op.outputs[p]);
    }
    return !honest_outputs.empty() &&
           core::check_agreement(*op.tree, honest_inputs, honest_outputs).ok();
  }

  /// Time of a perf::TreeIndex build on the op's tree.
  [[nodiscard]] double tree_index_ns(std::size_t i) const {
    const auto start = Clock::now();
    const perf::TreeIndex index(*ops_[i].tree);
    return ns_between(start, Clock::now());
  }

 private:
  struct Op {
    std::shared_ptr<const LabeledTree> tree;
    std::vector<VertexId> inputs;
    bool split = false;
    harness::AdversaryPlan plan;
    std::vector<std::optional<VertexId>> outputs;
  };

  std::size_t lanes_;
  std::vector<Op> ops_;
};

// --- RealAA pool -------------------------------------------------------------

constexpr std::size_t kRealParties = 64;
constexpr std::size_t kRealFaults = 21;
constexpr double kRealRange = 4.0;
constexpr std::size_t kRealPool = 8;

class RealPool {
 public:
  RealPool(std::uint64_t seed, std::size_t lanes) : lanes_(lanes) {
    config_.n = kRealParties;
    config_.t = kRealFaults;
    config_.eps = 1.0;
    config_.known_range = kRealRange;
    Rng rng(seed);
    for (std::size_t i = 0; i < kRealPool; ++i) {
      Op op;
      op.inputs =
          harness::random_real_inputs(kRealParties, 0.0, kRealRange, rng);
      op.victims = sim::random_parties(kRealParties, kRealFaults, rng);
      ops_.push_back(std::move(op));
    }
    warm_up(*this);
  }

  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  [[nodiscard]] std::size_t parties() const { return kRealParties; }
  [[nodiscard]] std::size_t lanes() const { return lanes_; }

  OpResult run(std::size_t i, std::size_t threads, const obs::Hooks* hooks,
               double* ms) {
    Op& op = ops_[i];
    // Byzantine parties run RealAA honestly on inputs outside the honest
    // range: the classic validity attack.
    auto adversary = harness::make_extreme_input_puppets(
        config_, op.victims, -kRealRange, 2 * kRealRange);
    const auto start = Clock::now();
    const harness::RealRun run = harness::run_real_aa(
        config_, op.inputs, std::move(adversary), hooks, threads);
    *ms = ms_between(start, Clock::now());
    Fnv hash;
    for (const auto& out : run.outputs) {
      hash.add(out.has_value() ? std::bit_cast<std::uint64_t>(*out) : ~0ull);
    }
    op.outputs = run.outputs;
    return summarize(hash.value(), run.traffic, run.rounds);
  }

  /// Validity (inside the honest input range) and eps-agreement.
  [[nodiscard]] bool check(std::size_t i) const {
    const Op& op = ops_[i];
    std::optional<double> in_lo, in_hi, out_lo, out_hi;
    for (std::size_t p = 0; p < op.outputs.size(); ++p) {
      if (!op.outputs[p].has_value()) continue;
      const double in = op.inputs[p];
      const double out = *op.outputs[p];
      in_lo = std::min(in_lo.value_or(in), in);
      in_hi = std::max(in_hi.value_or(in), in);
      out_lo = std::min(out_lo.value_or(out), out);
      out_hi = std::max(out_hi.value_or(out), out);
    }
    return out_lo.has_value() && *out_lo >= *in_lo && *out_hi <= *in_hi &&
           *out_hi - *out_lo <= config_.eps;
  }

  [[nodiscard]] double tree_index_ns(std::size_t) const { return 0.0; }

 private:
  struct Op {
    std::vector<double> inputs;
    std::vector<PartyId> victims;
    std::vector<std::optional<double>> outputs;
  };

  std::size_t lanes_;
  realaa::Config config_;
  std::vector<Op> ops_;
};

// --- The closed loop ---------------------------------------------------------

/// Runs pool ops round-robin for opts.seconds. Untraced runs report the
/// end-to-end metrics; traced runs execute each op untraced and then traced
/// (report + layer tracer attached) and report the per-layer metrics.
/// `serial_twin` re-runs every pool op on one lane afterwards and requires
/// identical results (the lane count must never change a byte).
template <typename Pool>
void closed_loop(const Options& opts, Report& report, Pool& pool,
                 bool serial_twin) {
  const std::size_t lanes = pool.lanes();
  std::vector<std::optional<OpResult>> first(pool.size());
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;

  obs::SpanSink spans;
  LayerTracer tracer(&spans);
  LayerFigures figures;

  const auto record = [&](std::size_t i, const OpResult& result) {
    if (!first[i].has_value()) first[i] = result;
    report.op(result == *first[i],
              "op " + std::to_string(i) + " did not reproduce its result");
  };

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opts.seconds));
  std::size_t next = 0;
  auto end = start;
  while (end < deadline) {
    const std::size_t i = next++ % pool.size();
    double ms = 0;
    record(i, pool.run(i, lanes, nullptr, &ms));
    untraced_ms.push_back(ms);
    if (opts.traced) {
      obs::RunReport run_report;
      obs::Hooks hooks;
      hooks.report = &run_report;
      hooks.tracer = &tracer;
      tracer.begin_op(next - 1, lanes);
      record(i, pool.run(i, lanes, &hooks, &ms));
      tracer.end_op();
      traced_ms.push_back(ms);
      figures.pool_dispatches +=
          run_report.timing.gauge("pool_dispatches").value();
      figures.pool_cv_sleeps +=
          run_report.timing.gauge("pool_cv_sleeps").value();
      figures.pool_notify_wakeups +=
          run_report.timing.gauge("pool_notify_wakeups").value();
      ++figures.pool_ops;
      figures.tree_index_ns += pool.tree_index_ns(i);
      if (next % 4 == 1) {
        figures.codec.add(
            time_protocol_codecs(tracer.payloads(), pool.parties()));
      }
    }
    end = Clock::now();
  }
  const double window_s = ms_between(start, end) / 1000.0;

  // Verification, outside the window: every pool op's agreement verdict,
  // and on request the one-lane twin of every op.
  Fnv pool_hash;
  double messages = 0, bytes = 0, rounds = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    double ms = 0;
    if (!first[i].has_value()) record(i, pool.run(i, lanes, nullptr, &ms));
    report.check(pool.check(i),
                 "op " + std::to_string(i) + " failed its agreement check");
    if (serial_twin) {
      report.op(pool.run(i, 1, nullptr, &ms) == *first[i],
                "op " + std::to_string(i) + " differs from its serial twin");
    }
    const OpResult& r = *first[i];
    pool_hash.add(r.outputs_hash);
    pool_hash.add(r.messages);
    pool_hash.add(r.bytes);
    pool_hash.add(r.rounds);
    messages += static_cast<double>(r.messages);
    bytes += static_cast<double>(r.bytes);
    rounds += static_cast<double>(r.rounds);
  }
  report.outputs_hash = pool_hash.value();

  const auto per_op = [&](double total) {
    return total / static_cast<double>(pool.size());
  };
  latency_metrics(report, untraced_ms);
  if (!opts.traced) {
    report.metric("ops_per_s",
                  static_cast<double>(untraced_ms.size()) / window_s, "ops/s",
                  untraced_ms.size());
    report.metric("msgs_per_op", per_op(messages), "count", pool.size());
    report.metric("bytes_per_op", per_op(bytes), "bytes", pool.size());
    report.metric("rounds_per_op", per_op(rounds), "count", pool.size());
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  figures.op_ns = tracer.totals().op_ns;
  figures.engine = &tracer.totals();
  figures.msgs_per_round =
      tracer.totals().rounds == 0
          ? 0.0
          : static_cast<double>(tracer.totals().messages) /
                static_cast<double>(tracer.totals().rounds);
  figures.trace_overhead = median(traced_ms) / median(untraced_ms) - 1.0;
  emit_layer_metrics(report, figures);
  if (!opts.span_path.empty() && !write_spans(spans, opts.span_path)) {
    report.op(false, "cannot write " + opts.span_path);
  }
}

template <typename Pool>
void run_pool_workload(const Options& opts, Report& report, std::size_t lanes,
                       bool serial_twin) {
  host_notes(report, lanes);
  const auto pool = timed_setup<Pool>(report, [&] {
    return std::make_unique<Pool>(opts.seed, lanes);
  });
  closed_loop(opts, report, *pool, serial_twin);
}

}  // namespace

void run_tree_serial(const Options& opts, Report& report) {
  run_pool_workload<TreePool>(opts, report, 1, false);
}

void run_tree_lanes4(const Options& opts, Report& report) {
  run_pool_workload<TreePool>(opts, report, 4, true);
}

void run_realaa_wide(const Options& opts, Report& report) {
  run_pool_workload<RealPool>(opts, report, 4, false);
}

}  // namespace treeaa::bench
