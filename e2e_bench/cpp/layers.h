// Per-layer accounting for traced runs, built only on public extension
// points: a sim::Tracer attached through obs::Hooks (engine phases and the
// protocol handlers per worker lane), payloads captured by on_queued and
// re-timed through the codec entry points, and spans kept in an
// obs::SpanSink (op -> round -> phase -> party on a lane, one op id shared
// by an op's spans) that the run writes as Chrome trace JSON at the end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "common/bytes.h"
#include "obs/span.h"
#include "sim/trace.h"

namespace treeaa::bench {

class LayerTracer final : public sim::Tracer {
 public:
  /// `spans` (may be null) receives the span tree of the first
  /// kRecordedOps ops; the aggregates cover every op.
  explicit LayerTracer(obs::SpanSink* spans);

  /// Brackets one traced engine run with `lanes` worker lanes.
  void begin_op(std::uint64_t op_id, std::size_t lanes);
  void end_op();

  void on_round_begin(Round r) override;
  void on_queued(const sim::Envelope& e, bool adversarial) override;
  void on_phase_begin(Round r, sim::Phase phase) override;
  void on_phase_end(Round r, sim::Phase phase) override;
  void on_party_begin(PartyId p, Round r, sim::Phase phase,
                      std::size_t lane) override;
  void on_party_end(PartyId p, Round r, sim::Phase phase,
                    std::size_t lane) override;

  /// Sums over every traced op, in nanoseconds. The two-element arrays hold
  /// the phases with per-party work: [0] send, [1] handle.
  struct Totals {
    std::uint64_t ops = 0;
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
    double op_ns = 0;             // begin_op .. end_op
    double round_ns = 0;          // round begin .. end of its handle phase
    double phase_ns[4] = {};      // indexed by sim::Phase
    double busy_ns[2] = {};       // party callbacks, summed over lanes
    double covered_ns[2] = {};    // union of the lanes' occupied intervals
    double lane_wall_ns[2] = {};  // lanes x phase wall
  };
  [[nodiscard]] const Totals& totals() const { return totals_; }

  /// Payloads sampled from the last op: an evenly strided, bounded subset.
  [[nodiscard]] const std::vector<Bytes>& payloads() const {
    return payloads_;
  }

 private:
  static constexpr std::uint64_t kRecordedOps = 8;
  static constexpr std::size_t kMaxPayloads = 256;

  struct PartySpan {
    PartyId party;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
  };
  // One per lane. During a phase only the worker running the lane writes
  // it; the phase-end callback reads it after the pool's barrier.
  struct alignas(64) Lane {
    std::uint64_t party_begin_ns = 0;
    std::uint64_t first_ns = 0;
    std::uint64_t last_ns = 0;
    std::uint64_t busy_ns = 0;
    bool touched = false;
    std::vector<PartySpan> spans;
  };

  [[nodiscard]] std::uint64_t now_ns() const;
  [[nodiscard]] bool recording() const {
    return spans_ != nullptr && op_id_ < kRecordedOps;
  }
  void close_round(std::uint64_t end_ns);

  obs::SpanSink* spans_;
  Clock::time_point epoch_ = Clock::now();
  Totals totals_;
  std::vector<Lane> lanes_;
  std::vector<Bytes> payloads_;
  std::uint64_t stride_ = 1;
  std::uint64_t queued_in_op_ = 0;
  std::uint64_t op_id_ = 0;
  std::uint64_t op_begin_ns_ = 0;
  std::uint64_t phase_begin_ns_ = 0;
  std::uint64_t round_begin_ns_ = 0;
  Round round_ = 0;
  bool round_open_ = false;
};

/// Codec cost re-timed on captured payloads.
struct CodecTiming {
  double encode_ns = 0;
  double decode_ns = 0;
  std::uint64_t messages = 0;  // payloads decoded and re-encoded
  std::uint64_t bytes = 0;

  void add(const CodecTiming& other);
};

/// Decodes each gradecast message (a leader value, or an n-slot echo or
/// support vector) with every value through realaa::decode_value, then
/// re-encodes the decoded values. Payloads that do not decode (Byzantine
/// garbage) are skipped. Each pass runs three times; the median counts.
[[nodiscard]] CodecTiming time_protocol_codecs(
    const std::vector<Bytes>& payloads, std::size_t n);

/// The per-layer figures of one traced run. Every workload emits the whole
/// set; a layer the workload never enters keeps its zero (documented per
/// workload in README.md), and such layers report only shares and counts,
/// never a time.
struct LayerFigures {
  // Denominator of the op-level shares: the time of the workload's ops
  // (sim ops, net deploys, serve round trips), summed.
  double op_ns = 0;
  double tree_index_ns = 0;  // perf::TreeIndex builds on the ops' trees

  // sim engine and protocol handlers; null when the workload never runs an
  // engine the benchmark can attach a tracer to.
  const LayerTracer::Totals* engine = nullptr;
  double msgs_per_round = 0;

  // WorkerPool gauges (RunReport pool_*), summed over `pool_ops` runs.
  double pool_dispatches = 0;
  double pool_cv_sleeps = 0;
  double pool_notify_wakeups = 0;
  std::uint64_t pool_ops = 0;

  CodecTiming codec;

  // net: per deploy, summed over `net_ops` deploys.
  std::uint64_t net_ops = 0;
  double net_deploy_ns = 0;
  double net_replay_ns = 0;
  double net_barrier_wait_ns = 0;  // summed over parties
  double net_party_ns = 0;         // parties x deploy wall
  double net_wire_lag_ns = 0;      // mean barrier issue-to-arrival lag
  double net_round_ns = 0;         // mean round wall
  double net_frames = 0;
  double net_payload_copies = 0;
  double net_suppressed = 0;
  double net_timeouts = 0;

  // serve: medians over the lo-rate sessions of the traced server.
  double serve_execute_share[3] = {};  // tree_aa, real_aa, block_aa
  double serve_overhead_share = 0;
  double serve_rejects_tenant_busy = 0;
  double serve_rejects_queue_full = 0;
  double serve_p99_hi_over_lo = 0;
  double serve_max_rate_slo = 0;
  double gen_late_sends = 0;
  double gen_backlog_max = 0;

  double trace_overhead = 0;
};

/// Emits every per-layer metric of `f`, in a fixed order.
void emit_layer_metrics(Report& report, const LayerFigures& f);

/// Writes the sink's Chrome trace JSON to `path`; false on I/O failure.
bool write_spans(const obs::SpanSink& sink, const std::string& path);

}  // namespace treeaa::bench
