#include "obs/probe.h"

#include <optional>

#include "obs/span.h"
#include "sim/engine.h"

namespace treeaa::obs {

void ProbeTracer::on_round_begin(Round r) {
  RoundSample s;
  s.round = r;
  s.corrupt_total = static_cast<std::uint32_t>(corruptions_);
  samples_.push_back(s);
  if (downstream_ != nullptr) downstream_->on_round_begin(r);
}

void ProbeTracer::on_queued(const sim::Envelope& e, bool adversarial) {
  if (!samples_.empty()) {
    RoundSample& s = samples_.back();
    if (adversarial) {
      s.adversary_messages += 1;
      s.adversary_bytes += e.payload.size();
    } else {
      s.honest_messages += 1;
      s.honest_bytes += e.payload.size();
    }
  }
  if (downstream_ != nullptr) downstream_->on_queued(e, adversarial);
}

void ProbeTracer::on_corrupt(PartyId p, Round r) {
  ++corruptions_;
  if (!samples_.empty()) {
    samples_.back().corrupt_total = static_cast<std::uint32_t>(corruptions_);
  }
  if (downstream_ != nullptr) downstream_->on_corrupt(p, r);
}

void ProbeTracer::on_deliver(Round r) {
  if (downstream_ != nullptr) downstream_->on_deliver(r);
}

void ProbeTracer::on_phase_begin(Round r, sim::Phase phase) {
  if (downstream_ != nullptr) downstream_->on_phase_begin(r, phase);
}

void ProbeTracer::on_phase_end(Round r, sim::Phase phase) {
  if (downstream_ != nullptr) downstream_->on_phase_end(r, phase);
}

void ProbeTracer::on_party_begin(PartyId p, Round r, sim::Phase phase,
                                 std::size_t lane) {
  if (downstream_ != nullptr) downstream_->on_party_begin(p, r, phase, lane);
}

void ProbeTracer::on_party_end(PartyId p, Round r, sim::Phase phase,
                               std::size_t lane) {
  if (downstream_ != nullptr) downstream_->on_party_end(p, r, phase, lane);
}

void ProbeTracer::on_delivered(const sim::Envelope& e) {
  if (downstream_ != nullptr) downstream_->on_delivered(e);
}

void drive_rounds(sim::Engine& engine, std::size_t rounds, const Hooks* hooks,
                  const RoundSnapshot& snapshot, const RoundNamer& round_name) {
  if (hooks == nullptr || !hooks->active()) {
    engine.run(static_cast<Round>(rounds));
    return;
  }
  RunReport* report = hooks->report;
  std::optional<SpanTracer> span_tracer;
  sim::Tracer* chained = hooks->tracer;
  if (hooks->spans != nullptr) {
    span_tracer.emplace(*hooks->spans, chained);
    chained = &*span_tracer;
  }
  ProbeTracer probe(chained);
  engine.set_tracer(&probe);
  DriverSpans driver_spans(hooks->spans);
  const perf::WorkerPool* pool = engine.pool();
  perf::WorkerPool::DispatchStats pool_base;
  if (pool != nullptr && report != nullptr) pool_base = pool->stats();
  Histogram* round_sink =
      report == nullptr ? nullptr
                        : &report->timing.histogram(
                              "round_wall_ns", ScopeTimer::wall_bounds());
  ScopeTimer run_timer(report == nullptr
                           ? nullptr
                           : &report->timing.histogram(
                                 "run_wall_ns", ScopeTimer::wall_bounds()));
  for (std::size_t r = 1; r <= rounds; ++r) {
    ScopeTimer round_timer(round_sink);
    driver_spans.begin_round();
    engine.run(static_cast<Round>(1));
    const auto round = static_cast<Round>(r);
    driver_spans.end_round(round_name ? round_name(round)
                                      : "round " + std::to_string(round));
    if (snapshot && report != nullptr && probe.current() != nullptr) {
      snapshot(*probe.current());
    }
  }
  run_timer.stop();
  engine.set_tracer(nullptr);
  if (report != nullptr) {
    report->per_round = probe.take();
    fill_pool_gauges(report->timing, pool, pool_base);
  }
}

std::string gradecast_round_name(Round r) {
  static constexpr const char* kStep[3] = {"leader", "echo", "support"};
  return "iter " + std::to_string((r - 1) / 3 + 1) + " \xc2\xb7 " +
         kStep[(r - 1) % 3];
}

namespace {

void append_event_head(std::string& line, const char* ev, Round r) {
  line += "{\"ev\":\"";
  line += ev;
  line += "\",\"round\":";
  line += std::to_string(r);
}

}  // namespace

void JsonlTracer::on_round_begin(Round r) {
  round_ = r;
  std::string line;
  append_event_head(line, "round", r);
  line += '}';
  lines_.push_back(std::move(line));
}

void JsonlTracer::on_queued(const sim::Envelope& e, bool adversarial) {
  ++messages_;
  std::string line;
  line.reserve(64 + (payloads_ ? 2 * e.payload.size() : 0));
  append_event_head(line, adversarial ? "byz" : "send", round_);
  line += ",\"from\":";
  line += std::to_string(e.from);
  line += ",\"to\":";
  line += std::to_string(e.to);
  line += ",\"bytes\":";
  line += std::to_string(e.payload.size());
  if (payloads_) {
    line += ",\"payload\":\"";
    static constexpr char kHex[] = "0123456789abcdef";
    for (const std::uint8_t b : e.payload) {
      line += kHex[b >> 4];
      line += kHex[b & 0xF];
    }
    line += '"';
  }
  line += '}';
  lines_.push_back(std::move(line));
}

void JsonlTracer::on_corrupt(PartyId p, Round r) {
  std::string line;
  append_event_head(line, "corrupt", r);
  line += ",\"party\":";
  line += std::to_string(p);
  line += '}';
  lines_.push_back(std::move(line));
}

void JsonlTracer::on_deliver(Round r) {
  std::string line;
  append_event_head(line, "deliver", r);
  line += '}';
  lines_.push_back(std::move(line));
}

std::string JsonlTracer::text() const {
  std::string out;
  for (const auto& line : lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

void JsonlTracer::clear() {
  lines_.clear();
  messages_ = 0;
  round_ = 0;
}

}  // namespace treeaa::obs
