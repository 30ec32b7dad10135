// net_deploy: net::run_tree_aa_net, n=4, t=1, on 1000-vertex random trees,
// closed loop from one caller thread (each deploy runs one OS thread per
// party over an AF_UNIX socketpair mesh).
//
// Fault plan: every frame may be duplicated (1%) and every (link, round)
// reordered (5%); odd ops also crash one seeded party at a seeded round.
// None of these loses a message on a live link, so the crash alone spends
// the fault budget t=1. Drop or delay faults would: with n=4 a collection
// that loses two frames falls below the n - t quorum and the deploy aborts,
// which a 1% drop rate does to about one deploy in a hundred.
//
// The timed loop runs with the sim cross-check off; after the window the
// first kCrossChecked pool ops run again with it on and must report
// sim_reference_match.
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.h"
#include "common/rng.h"
#include "core/api.h"
#include "harness/runner.h"
#include "layers.h"
#include "net/deploy.h"
#include "obs/report.h"
#include "perf/tree_index.h"
#include "trees/generators.h"

namespace treeaa::bench {

namespace {

constexpr std::size_t kParties = 4;
constexpr std::size_t kFaults = 1;
constexpr std::size_t kVertices = 1000;
constexpr std::size_t kPool = 32;
constexpr std::size_t kCrossChecked = 20;
constexpr const char* kLinkFaults = "dup=0.01,reorder=0.05";

struct DeployOutcome {
  std::uint64_t outputs_hash = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t rounds = 0;

  friend bool operator==(const DeployOutcome&, const DeployOutcome&) = default;
};

class NetPool {
 public:
  explicit NetPool(std::uint64_t seed) {
    Rng rng(seed);
    for (std::size_t i = 0; i < kPool; ++i) {
      Op op{make_random_tree(kVertices, rng), {}, {}};
      op.inputs = harness::random_vertex_inputs(op.tree, kParties, rng);
      op.config.faults = net::FaultPlan::parse(kLinkFaults);
      op.config.corrupt_count = 0;
      op.config.seed = rng.next();
      op.config.crosscheck = false;
      if (i % 2 == 1) {
        // Mid-run, so every crash suppresses about the same traffic and the
        // pool's message counts barely depend on the seed.
        const auto rounds = static_cast<Round>(
            core::tree_aa_rounds(op.tree, kParties, kFaults, {}));
        op.config.faults.crashes.push_back(net::FaultPlan::Crash{
            static_cast<PartyId>(rng.index(kParties)),
            static_cast<Round>(rounds / 2)});
      }
      ops_.push_back(std::move(op));
    }
    // One deploy per pool op before the window opens.
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      double ms = 0;
      (void)deploy(i, ops_[i].config, &ms);
    }
  }

  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  [[nodiscard]] const LabeledTree& tree(std::size_t i) const {
    return ops_[i].tree;
  }
  [[nodiscard]] const std::vector<VertexId>& inputs(std::size_t i) const {
    return ops_[i].inputs;
  }
  [[nodiscard]] const net::DeployConfig& config(std::size_t i) const {
    return ops_[i].config;
  }

  /// One deploy under `cfg`; `ms` receives the call's wall time.
  net::DeployResult deploy(std::size_t i, const net::DeployConfig& cfg,
                           double* ms) const {
    const auto start = Clock::now();
    net::DeployResult result =
        net::run_tree_aa_net(ops_[i].tree, ops_[i].inputs, kFaults, cfg);
    *ms = ms_between(start, Clock::now());
    return result;
  }

 private:
  struct Op {
    LabeledTree tree;
    std::vector<VertexId> inputs;
    net::DeployConfig config;
  };
  std::vector<Op> ops_;
};

DeployOutcome outcome_of(const net::DeployResult& r) {
  Fnv hash;
  for (const auto& out : r.outputs) hash.add(out.has_value() ? *out : ~0ull);
  return DeployOutcome{hash.value(), r.report.totals.frames_sent,
                       r.report.totals.bytes_sent, r.rounds};
}

}  // namespace

void run_net_deploy(const Options& opts, Report& report) {
  host_notes(report, 1);
  report.note("net_parties", std::to_string(kParties));
  report.note("fault_plan", std::string(kLinkFaults) + " (+ crash on odd ops)");
  const auto pool = timed_setup<NetPool>(
      report, [&] { return std::make_unique<NetPool>(opts.seed); });

  std::vector<std::optional<DeployOutcome>> first(pool->size());
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  obs::SpanSink spans;
  LayerTracer tracer(&spans);
  LayerFigures figures;
  double traced_rounds = 0;

  const auto record = [&](std::size_t i, const net::DeployResult& r) {
    const DeployOutcome outcome = outcome_of(r);
    if (!first[i].has_value()) first[i] = outcome;
    report.op(r.ok() && outcome == *first[i],
              "deploy " + std::to_string(i) +
                  (r.ok() ? " did not reproduce its result"
                          : " failed its agreement check"));
  };

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opts.seconds));
  std::size_t next = 0;
  auto end = start;
  while (end < deadline) {
    const std::size_t i = next++ % pool->size();
    double ms = 0;
    record(i, pool->deploy(i, pool->config(i), &ms));
    untraced_ms.push_back(ms);
    if (opts.traced) {
      net::DeployConfig cfg = pool->config(i);
      cfg.timings = true;
      if (next <= 8) cfg.spans = &spans;
      net::DeployResult r = pool->deploy(i, cfg, &ms);
      record(i, r);
      traced_ms.push_back(ms);
      const double deploy_ns = ms * 1e6;
      ++figures.net_ops;
      figures.net_deploy_ns += deploy_ns;
      figures.op_ns += deploy_ns;
      figures.net_party_ns += deploy_ns * static_cast<double>(kParties);
      obs::Registry& timing = r.report.timing;
      figures.net_barrier_wait_ns +=
          timing.histogram("net_barrier_wait_ns").sum();
      const obs::Histogram& lag = timing.histogram("net_wire_lag_ns");
      if (lag.count() > 0 && r.rounds > 0) {
        figures.net_wire_lag_ns += lag.mean();
        figures.net_round_ns += deploy_ns / static_cast<double>(r.rounds);
      }
      figures.net_frames += static_cast<double>(r.report.totals.frames_sent);
      traced_rounds += static_cast<double>(r.rounds);
      figures.net_payload_copies +=
          static_cast<double>(r.report.totals.payload_copies);
      figures.net_suppressed += static_cast<double>(r.report.totals.suppressed);
      figures.net_timeouts += static_cast<double>(r.report.timeouts_total);

      // The same op on the simulator, with the layer tracer attached.
      obs::RunReport run_report;
      obs::Hooks hooks;
      hooks.report = &run_report;
      hooks.tracer = &tracer;
      tracer.begin_op(next - 1, 1);
      const auto replay_start = Clock::now();
      const core::RunResult replay = core::run_tree_aa(
          pool->tree(i), pool->inputs(i), kFaults, {}, nullptr, &hooks);
      figures.net_replay_ns += ns_between(replay_start, Clock::now());
      tracer.end_op();
      report.op(replay.rounds == r.rounds, "replay of deploy " +
                                               std::to_string(i) +
                                               " ran a different round count");
      if (next % 4 == 1) {
        figures.codec.add(time_protocol_codecs(tracer.payloads(), kParties));
      }
      const auto index_start = Clock::now();
      const perf::TreeIndex index(pool->tree(i));
      figures.tree_index_ns += ns_between(index_start, Clock::now());
    }
    end = Clock::now();
  }
  const double window_s = ms_between(start, end) / 1000.0;

  // Cross-checked re-runs of the pool's first ops, outside the window.
  Fnv pool_hash;
  double frames = 0, bytes = 0, rounds = 0;
  for (std::size_t i = 0; i < pool->size(); ++i) {
    double ms = 0;
    if (i < kCrossChecked) {
      net::DeployConfig cfg = pool->config(i);
      cfg.crosscheck = true;
      const net::DeployResult r = pool->deploy(i, cfg, &ms);
      record(i, r);
      report.check(r.report.sim_reference_match,
                   "deploy " + std::to_string(i) +
                       " does not match its sim reference");
    } else if (!first[i].has_value()) {
      record(i, pool->deploy(i, pool->config(i), &ms));
    }
    const DeployOutcome& o = *first[i];
    pool_hash.add(o.outputs_hash);
    pool_hash.add(o.frames);
    pool_hash.add(o.bytes);
    pool_hash.add(o.rounds);
    frames += static_cast<double>(o.frames);
    bytes += static_cast<double>(o.bytes);
    rounds += static_cast<double>(o.rounds);
  }
  report.outputs_hash = pool_hash.value();

  const auto per_op = [&](double total) {
    return total / static_cast<double>(pool->size());
  };
  latency_metrics(report, untraced_ms);
  if (!opts.traced) {
    report.metric("ops_per_s",
                  static_cast<double>(untraced_ms.size()) / window_s, "ops/s",
                  untraced_ms.size());
    report.metric("msgs_per_op", per_op(frames), "count", pool->size());
    report.metric("bytes_per_op", per_op(bytes), "bytes", pool->size());
    report.metric("rounds_per_op", per_op(rounds), "count", pool->size());
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  figures.engine = &tracer.totals();
  figures.msgs_per_round = figures.net_frames / std::max(1.0, traced_rounds);
  figures.trace_overhead = median(traced_ms) / median(untraced_ms) - 1.0;
  emit_layer_metrics(report, figures);
  if (!opts.span_path.empty() && !write_spans(spans, opts.span_path)) {
    report.op(false, "cannot write " + opts.span_path);
  }
}

}  // namespace treeaa::bench
