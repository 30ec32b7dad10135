// Protocol probes over the synchronous engine's tracer interface, and the
// one observed-run driver built on them.
//
// ProbeTracer turns the raw event stream (queued messages, corruptions,
// round boundaries) into the per-round RoundSample series of a RunReport.
// drive_rounds is the single place a synchronous run is driven under
// observability hooks: it chains the probe, the span tracer and the
// caller's tracer, times rounds, names driver spans, and lets the protocol
// runner merge its own observations (value diameter, hull size, detections,
// grade distributions) into the current sample after each engine round.
// JsonlTracer is the structured sibling of sim::RecordingTracer: one flat
// JSON object per event, newline-delimited, so transcripts can be consumed
// by tools without a bespoke parser.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "obs/report.h"
#include "sim/trace.h"

namespace treeaa::sim {
class Engine;
}

namespace treeaa::obs {

/// Collects engine-level per-round samples. Optionally chains to a
/// downstream tracer (e.g. a transcript recorder), so probing and tracing
/// can share one engine slot.
class ProbeTracer final : public sim::Tracer {
 public:
  explicit ProbeTracer(sim::Tracer* downstream = nullptr)
      : downstream_(downstream) {}

  void on_round_begin(Round r) override;
  void on_queued(const sim::Envelope& e, bool adversarial) override;
  void on_corrupt(PartyId p, Round r) override;
  void on_deliver(Round r) override;
  // Span-granularity events don't feed samples; forward them untouched so a
  // chained SpanTracer still sees the full stream.
  void on_phase_begin(Round r, sim::Phase phase) override;
  void on_phase_end(Round r, sim::Phase phase) override;
  void on_party_begin(PartyId p, Round r, sim::Phase phase,
                      std::size_t lane) override;
  void on_party_end(PartyId p, Round r, sim::Phase phase,
                    std::size_t lane) override;
  void on_delivered(const sim::Envelope& e) override;

  /// The sample of the round currently in flight (null before round 1).
  [[nodiscard]] RoundSample* current() {
    return samples_.empty() ? nullptr : &samples_.back();
  }
  [[nodiscard]] const std::vector<RoundSample>& samples() const {
    return samples_;
  }
  /// Corruptions observed so far (including init-time ones).
  [[nodiscard]] std::size_t corruptions() const { return corruptions_; }

  /// Moves the collected series out (for RunReport::per_round).
  [[nodiscard]] std::vector<RoundSample> take() {
    return std::move(samples_);
  }

 private:
  sim::Tracer* downstream_;
  std::vector<RoundSample> samples_;
  std::size_t corruptions_ = 0;
};

/// Newline-delimited JSON transcript ("treeaa.trace/1"). Event lines:
///   {"ev":"round","round":R}
///   {"ev":"send","round":R,"from":F,"to":T,"bytes":B}         (honest)
///   {"ev":"byz","round":R,"from":F,"to":T,"bytes":B}          (adversary)
///   {"ev":"corrupt","round":R,"party":P}
///   {"ev":"deliver","round":R}
/// With payloads enabled, send/byz lines gain "payload":"<hex>". Every line
/// is an object of scalars, readable with JsonValue::parse.
class JsonlTracer final : public sim::Tracer {
 public:
  explicit JsonlTracer(bool payloads = false) : payloads_(payloads) {}

  void on_round_begin(Round r) override;
  void on_queued(const sim::Envelope& e, bool adversarial) override;
  void on_corrupt(PartyId p, Round r) override;
  void on_deliver(Round r) override;

  [[nodiscard]] const std::vector<std::string>& lines() const {
    return lines_;
  }
  /// All lines joined with trailing newlines — the JSONL document.
  [[nodiscard]] std::string text() const;
  [[nodiscard]] std::size_t message_count() const { return messages_; }

  /// Forgets everything recorded, keeping the tracer attachable for the
  /// next (phase of a) run.
  void clear();

 private:
  bool payloads_;
  std::vector<std::string> lines_;
  std::size_t messages_ = 0;
  Round round_ = 0;  // round currently in flight
};

/// Merges protocol-level observations into the sample of the round that
/// just ended (the engine-level fields are already filled by the probe).
using RoundSnapshot = std::function<void(RoundSample&)>;
/// Names the "engine/driver" span of round `r` (1-based).
using RoundNamer = std::function<std::string(Round)>;

/// Runs `engine` for `rounds` synchronous rounds under `hooks`. Inactive
/// hooks (null, or no sink attached) take the plain fast path: one
/// engine.run(rounds), no tracer, no clock reads. Otherwise the engine runs
/// one round at a time behind the tracer chain probe -> SpanTracer ->
/// hooks->tracer; each round gets a driver span named by `round_name`
/// (empty: "round R") and, with a report sink, a round_wall_ns sample and
/// a `snapshot` call. The run ends with run_wall_ns, the per-round series
/// moved into report->per_round, and the pool_* gauges. Params, totals and
/// outcomes stay with the caller.
void drive_rounds(sim::Engine& engine, std::size_t rounds, const Hooks* hooks,
                  const RoundSnapshot& snapshot = {},
                  const RoundNamer& round_name = {});

/// "iter K · leader|echo|support": the driver-span name of sub-round `r`
/// (1-based) of back-to-back gradecast batches, three sub-rounds per
/// iteration (src/gradecast/wire.h).
[[nodiscard]] std::string gradecast_round_name(Round r);

}  // namespace treeaa::obs
