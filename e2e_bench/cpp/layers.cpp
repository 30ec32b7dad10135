#include "layers.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <optional>
#include <utility>

#include "gradecast/wire.h"
#include "realaa/wire.h"

namespace treeaa::bench {

namespace {

constexpr std::size_t kSend = 0;
constexpr std::size_t kHandle = 1;

/// Index into the per-party arrays, or nullopt for a phase without parties.
std::optional<std::size_t> party_phase(sim::Phase phase) {
  if (phase == sim::Phase::kSend) return kSend;
  if (phase == sim::Phase::kHandle) return kHandle;
  return std::nullopt;
}

std::string op_args(std::uint64_t op_id) {
  return "{\"op\":" + std::to_string(op_id) + "}";
}

/// Length of the union of closed intervals.
std::uint64_t union_length(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> v) {
  std::sort(v.begin(), v.end());
  std::uint64_t total = 0;
  std::uint64_t cur_begin = 0;
  std::uint64_t cur_end = 0;
  bool open = false;
  for (const auto& [b, e] : v) {
    if (!open || b > cur_end) {
      if (open) total += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

}  // namespace

// --- LayerTracer -------------------------------------------------------------

LayerTracer::LayerTracer(obs::SpanSink* spans) : spans_(spans) {}

std::uint64_t LayerTracer::now_ns() const {
  if (spans_ != nullptr) return spans_->now_ns();
  return static_cast<std::uint64_t>(ns_between(epoch_, Clock::now()));
}

void LayerTracer::begin_op(std::uint64_t op_id, std::size_t lanes) {
  op_id_ = op_id;
  lanes_.assign(std::max<std::size_t>(lanes, 1), Lane{});
  // Sample about kMaxPayloads payloads per op, spread over the whole run:
  // the stride comes from the previous op's message count.
  stride_ = std::max<std::uint64_t>(1, queued_in_op_ / kMaxPayloads);
  queued_in_op_ = 0;
  payloads_.clear();
  round_open_ = false;
  op_begin_ns_ = now_ns();
}

void LayerTracer::end_op() {
  const std::uint64_t end = now_ns();
  if (round_open_) close_round(end);
  totals_.op_ns += static_cast<double>(end - op_begin_ns_);
  ++totals_.ops;
  if (recording()) {
    spans_->complete(spans_->track("treeaa_bench", "ops"),
                     "op " + std::to_string(op_id_), op_begin_ns_, end,
                     op_args(op_id_));
  }
}

void LayerTracer::close_round(std::uint64_t end_ns) {
  totals_.round_ns += static_cast<double>(end_ns - round_begin_ns_);
  round_open_ = false;
  if (recording()) {
    spans_->complete(spans_->track("treeaa_bench", "rounds"),
                     "round " + std::to_string(round_), round_begin_ns_,
                     end_ns, op_args(op_id_));
  }
}

void LayerTracer::on_round_begin(Round r) {
  const std::uint64_t now = now_ns();
  if (round_open_) close_round(now);
  round_ = r;
  round_begin_ns_ = now;
  round_open_ = true;
  ++totals_.rounds;
}

void LayerTracer::on_queued(const sim::Envelope& e, bool adversarial) {
  (void)adversarial;
  ++totals_.messages;
  if (queued_in_op_++ % stride_ == 0 && payloads_.size() < kMaxPayloads) {
    payloads_.push_back(e.payload.bytes());
  }
}

void LayerTracer::on_phase_begin(Round r, sim::Phase phase) {
  (void)r;
  phase_begin_ns_ = now_ns();
  if (party_phase(phase).has_value()) {
    for (Lane& lane : lanes_) {
      lane.touched = false;
      lane.busy_ns = 0;
      lane.spans.clear();
    }
  }
}

void LayerTracer::on_phase_end(Round r, sim::Phase phase) {
  (void)r;
  const std::uint64_t end = now_ns();
  const std::uint64_t wall = end - phase_begin_ns_;
  totals_.phase_ns[static_cast<std::size_t>(phase)] +=
      static_cast<double>(wall);
  const bool record = recording();
  if (record) {
    spans_->complete(spans_->track("treeaa_bench", "phases"),
                     sim::phase_name(phase), phase_begin_ns_, end,
                     op_args(op_id_));
  }
  const auto which = party_phase(phase);
  if (!which.has_value()) return;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> occupied;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const Lane& lane = lanes_[l];
    if (!lane.touched) continue;
    totals_.busy_ns[*which] += static_cast<double>(lane.busy_ns);
    occupied.emplace_back(lane.first_ns, lane.last_ns);
    if (record) {
      const obs::TrackId track =
          spans_->track("treeaa_bench", "lane " + std::to_string(l));
      for (const PartySpan& s : lane.spans) {
        spans_->complete(track,
                         std::string(sim::phase_name(phase)) + " party " +
                             std::to_string(s.party),
                         s.begin_ns, s.end_ns, op_args(op_id_));
      }
    }
  }
  totals_.covered_ns[*which] += static_cast<double>(union_length(occupied));
  totals_.lane_wall_ns[*which] +=
      static_cast<double>(wall) * static_cast<double>(lanes_.size());
}

void LayerTracer::on_party_begin(PartyId p, Round r, sim::Phase phase,
                                 std::size_t lane) {
  (void)p;
  (void)r;
  (void)phase;
  if (lane >= lanes_.size()) return;
  Lane& slot = lanes_[lane];
  slot.party_begin_ns = now_ns();
  if (!slot.touched) {
    slot.first_ns = slot.party_begin_ns;
    slot.touched = true;
  }
}

void LayerTracer::on_party_end(PartyId p, Round r, sim::Phase phase,
                               std::size_t lane) {
  (void)r;
  (void)phase;
  if (lane >= lanes_.size()) return;
  Lane& slot = lanes_[lane];
  slot.last_ns = now_ns();
  slot.busy_ns += slot.last_ns - slot.party_begin_ns;
  if (recording()) {
    slot.spans.push_back(PartySpan{p, slot.party_begin_ns, slot.last_ns});
  }
}

// --- Codecs ------------------------------------------------------------------

void CodecTiming::add(const CodecTiming& other) {
  encode_ns += other.encode_ns;
  decode_ns += other.decode_ns;
  messages += other.messages;
  bytes += other.bytes;
}

CodecTiming time_protocol_codecs(const std::vector<Bytes>& payloads,
                                 std::size_t n) {
  // A decoded message: the tag and one value per slot (a leader message has
  // exactly one slot, never empty).
  struct Decoded {
    std::uint8_t tag = 0;
    std::vector<std::optional<double>> values;
  };
  std::vector<const Bytes*> usable;
  std::vector<Decoded> decoded;
  std::vector<gradecast::SlotView> views(n);

  const auto decode_one = [&](const Bytes& msg, Decoded& out) {
    out.values.clear();
    if (msg.empty()) return false;
    out.tag = msg[0];
    if (out.tag == gradecast::kTagLeader) {
      const auto value = gradecast::decode_leader_view(msg);
      if (!value.has_value()) return false;
      out.values.push_back(realaa::decode_value(*value));
      return out.values.back().has_value();
    }
    if (out.tag != gradecast::kTagEcho && out.tag != gradecast::kTagSupport) {
      return false;
    }
    if (!gradecast::decode_slots_view(out.tag, msg, views)) return false;
    for (const auto& slot : views) {
      out.values.push_back(slot.has_value() ? realaa::decode_value(*slot)
                                            : std::nullopt);
    }
    return true;
  };

  Decoded scratch;
  for (const Bytes& msg : payloads) {
    if (decode_one(msg, scratch)) {
      usable.push_back(&msg);
      decoded.push_back(scratch);
    }
  }
  CodecTiming out;
  if (usable.empty()) return out;
  out.messages = usable.size();
  for (const Bytes* msg : usable) out.bytes += msg->size();

  std::array<double, 3> decode_runs{};
  std::array<double, 3> encode_runs{};
  std::size_t sink = 0;
  for (std::size_t run = 0; run < decode_runs.size(); ++run) {
    const auto start = Clock::now();
    for (const Bytes* msg : usable) {
      sink += decode_one(*msg, scratch) ? scratch.values.size() : 0;
    }
    decode_runs[run] = ns_between(start, Clock::now());
  }
  for (std::size_t run = 0; run < encode_runs.size(); ++run) {
    const auto start = Clock::now();
    for (const Decoded& d : decoded) {
      if (d.tag == gradecast::kTagLeader) {
        sink += gradecast::encode_leader(realaa::encode_value(*d.values[0]))
                    .size();
        continue;
      }
      std::vector<gradecast::Slot> slots(d.values.size());
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (d.values[i].has_value()) {
          slots[i] = realaa::encode_value(*d.values[i]);
        }
      }
      sink += gradecast::encode_slots(d.tag, slots).size();
    }
    encode_runs[run] = ns_between(start, Clock::now());
  }
  // The sink keeps the optimizer from discarding the timed work.
  if (sink == 0) out.messages = 0;
  std::sort(decode_runs.begin(), decode_runs.end());
  std::sort(encode_runs.begin(), encode_runs.end());
  out.decode_ns = decode_runs[1];
  out.encode_ns = encode_runs[1];
  return out;
}

// --- Emission ---------------------------------------------------------------

void emit_layer_metrics(Report& report, const LayerFigures& f) {
  const auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  const auto per = [](double sum, std::uint64_t count) {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  };

  report.metric("perf.tree_index.share", share(f.tree_index_ns, f.op_ns),
                "ratio");

  const LayerTracer::Totals none;
  const LayerTracer::Totals& e = f.engine != nullptr ? *f.engine : none;
  const double engine_ns = e.op_ns;
  double phases_ns = 0;
  for (const double ns : e.phase_ns) phases_ns += ns;
  report.metric("sim.send_share", share(e.phase_ns[0], engine_ns), "ratio");
  report.metric("sim.adversary_share", share(e.phase_ns[1], engine_ns),
                "ratio");
  report.metric("sim.sort_share", share(e.phase_ns[2], engine_ns), "ratio");
  report.metric("sim.handle_share", share(e.phase_ns[3], engine_ns), "ratio");
  // Self times: a span's duration minus what its children cover.
  report.metric("sim.op_self_share", share(engine_ns - e.round_ns, engine_ns),
                "ratio");
  report.metric("sim.round_self_share",
                share(e.round_ns - phases_ns, engine_ns), "ratio");
  report.metric("sim.msgs_per_round", f.msgs_per_round, "count");
  report.metric("proto.send_busy_share", share(e.busy_ns[0], engine_ns),
                "ratio");
  report.metric("proto.handle_busy_share", share(e.busy_ns[1], engine_ns),
                "ratio");

  report.metric("pool.dispatches", per(f.pool_dispatches, f.pool_ops),
                "count");
  report.metric("pool.cv_sleeps", per(f.pool_cv_sleeps, f.pool_ops), "count");
  report.metric("pool.notify_wakeups", per(f.pool_notify_wakeups, f.pool_ops),
                "count");
  report.metric("pool.lane_busy_frac",
                share(e.busy_ns[0] + e.busy_ns[1],
                      e.lane_wall_ns[0] + e.lane_wall_ns[1]),
                "ratio");
  report.metric("pool.phase_overhead_share",
                share(e.phase_ns[0] + e.phase_ns[3] - e.covered_ns[0] -
                          e.covered_ns[1],
                      engine_ns),
                "ratio");

  report.metric("codec.encode_ns_per_msg",
                per(f.codec.encode_ns, f.codec.messages), "ns",
                f.codec.messages);
  report.metric("codec.decode_ns_per_msg",
                per(f.codec.decode_ns, f.codec.messages), "ns",
                f.codec.messages);
  report.metric("codec.bytes_per_msg",
                per(static_cast<double>(f.codec.bytes), f.codec.messages),
                "bytes", f.codec.messages);

  report.metric("net.replay_share", share(f.net_replay_ns, f.net_deploy_ns),
                "ratio");
  report.metric("net.barrier_wait_share",
                share(f.net_barrier_wait_ns, f.net_party_ns), "ratio");
  report.metric("net.wire_lag_share", share(f.net_wire_lag_ns, f.net_round_ns),
                "ratio");
  report.metric("net.frames", per(f.net_frames, f.net_ops), "count");
  report.metric("net.payload_copies", per(f.net_payload_copies, f.net_ops),
                "count");
  report.metric("net.suppressed", per(f.net_suppressed, f.net_ops), "count");
  report.metric("net.timeouts", per(f.net_timeouts, f.net_ops), "count");

  report.metric("serve.execute_share.tree_aa", f.serve_execute_share[0],
                "ratio");
  report.metric("serve.execute_share.real_aa", f.serve_execute_share[1],
                "ratio");
  report.metric("serve.execute_share.block_aa", f.serve_execute_share[2],
                "ratio");
  report.metric("serve.overhead_share", f.serve_overhead_share, "ratio");
  report.metric("serve.rejects.tenant_busy", f.serve_rejects_tenant_busy,
                "count");
  report.metric("serve.rejects.queue_full", f.serve_rejects_queue_full,
                "count");
  report.metric("serve.p99_hi_over_lo", f.serve_p99_hi_over_lo, "ratio");
  report.metric("serve.max_rate_slo", f.serve_max_rate_slo, "1/s");
  report.metric("gen.late_sends", f.gen_late_sends, "count");
  report.metric("gen.backlog_max", f.gen_backlog_max, "count");

  report.metric("trace.overhead", f.trace_overhead, "ratio");
}

bool write_spans(const obs::SpanSink& sink, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << sink.to_chrome_json();
  return static_cast<bool>(out);
}

}  // namespace treeaa::bench
