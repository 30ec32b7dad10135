// Causal span tracing with Chrome trace-event export (docs/OBSERVABILITY.md).
//
// SpanSink is a thread-safe event store: named tracks (a (process, thread)
// pair, rendered as Perfetto's pid/tid grouping), complete spans, instant
// events, and flow edges (the arrows Perfetto draws between a send slice and
// the matching deliver slice). SpanTracer adapts the sim::Tracer callback
// stream onto a sink: engine phase spans on an "engine" track, per-party
// send/handle spans on "parties" tracks, synthesized lane-occupancy spans on
// "lanes" tracks, and send→deliver flow edges keyed FIFO per (from, to) link.
// The net runtime writes its own per-party-thread spans into the same sink.
//
// Span files carry wall-clock timestamps and are therefore opt-in, exactly
// like the `timing` report section: nothing here is ever reachable from a
// canonical (byte-reproducible) report. Attaching a SpanTracer does not
// change any report or transcript bytes.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/trace.h"

namespace treeaa::obs {

/// Handle to one horizontal timeline (Perfetto: one thread row inside a
/// process group). Value type; obtained from SpanSink::track().
struct TrackId {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
};

/// Thread-safe collector of trace events, exported as Chrome trace-event
/// JSON ({"traceEvents": [...]}) loadable in Perfetto / chrome://tracing.
/// Timestamps are microseconds on the steady clock, zeroed at construction.
class SpanSink {
 public:
  SpanSink();

  /// Interns a (process, thread) pair as a track; repeated calls with the
  /// same names return the same id. Emits the matching process_name /
  /// thread_name metadata on export.
  [[nodiscard]] TrackId track(const std::string& process,
                              const std::string& thread);

  /// Nanoseconds since the sink's epoch (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// A complete span [begin_ns, end_ns] on `t` (Chrome "X" event). Ends
  /// before it begins are clamped to zero duration.
  void complete(TrackId t, std::string name, std::uint64_t begin_ns,
                std::uint64_t end_ns, std::string args_json = "");
  /// A thread-scoped instant (Chrome "i", s:"t").
  void instant(TrackId t, std::string name, std::uint64_t ts_ns);
  /// Flow start ("s") / finish ("f", bp:"e"): Perfetto draws an arrow from
  /// the slice enclosing the start timestamp to the slice enclosing the
  /// finish timestamp. Both halves must use the same `id`.
  void flow_start(TrackId t, std::uint64_t id, std::uint64_t ts_ns);
  void flow_finish(TrackId t, std::uint64_t id, std::uint64_t ts_ns);

  /// Event counts (metadata excluded), for tests and trace_report stats.
  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::size_t instant_count() const;
  [[nodiscard]] std::size_t flow_count() const;  // start+finish halves
  /// Interned track names as "process/thread", in pid/tid order.
  [[nodiscard]] std::vector<std::string> track_names() const;

  /// The full trace document: {"traceEvents": [...]} with metadata events
  /// first, then the recorded events in record order.
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  struct Event {
    char ph;  // 'X', 'i', 's', 'f'
    TrackId track;
    std::string name;
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;  // X only
    std::uint64_t flow_id = 0;  // s/f only
    std::string args_json;      // pre-rendered object, may be empty
  };

  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  // process name -> pid; (pid, thread name) -> tid. Insertion-ordered ids.
  std::map<std::string, std::uint32_t> pids_;
  std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> tids_;
  std::vector<std::pair<std::string, TrackId>> tracks_;  // "p/t" + id
  std::vector<Event> events_;
  std::size_t spans_ = 0;
  std::size_t instants_ = 0;
  std::size_t flows_ = 0;
};

/// Used by the one observed-run driver, obs::drive_rounds (obs/probe.h), to
/// wrap each engine.run(1) call in a named span on the "engine/driver"
/// track — protocol-aware round names ("iter 2 · echo", "round 7") land here.
/// Inactive (no clock reads) when constructed with a null sink.
class DriverSpans {
 public:
  explicit DriverSpans(SpanSink* sink);

  void begin_round();
  /// Closes the span opened by the last begin_round().
  void end_round(std::string name);

 private:
  SpanSink* sink_;
  TrackId track_;
  std::uint64_t begin_ns_ = 0;
};

/// sim::Tracer that renders an engine execution onto a SpanSink:
///   engine/phases   one span per round phase (send/adversary/sort/handle)
///   engine/rounds   "round R" instants and corruption markers
///   parties/party P "send" and "handle" spans, flow-edge anchors
///   lanes/lane L    per-phase occupancy spans (parallel engines only)
/// All callbacks are internally locked: the per-party ones arrive
/// concurrently from worker lanes. Chains to an optional downstream tracer
/// so span capture composes with transcripts and probes.
class SpanTracer final : public sim::Tracer {
 public:
  /// `prefix` namespaces the track names ("sim " for the net cross-check
  /// engine, so its tracks don't collide with the net threads').
  explicit SpanTracer(SpanSink& sink, sim::Tracer* downstream = nullptr,
                      const std::string& prefix = "");

  void on_round_begin(Round r) override;
  void on_queued(const sim::Envelope& e, bool adversarial) override;
  void on_corrupt(PartyId p, Round r) override;
  void on_deliver(Round r) override;
  void on_phase_begin(Round r, sim::Phase phase) override;
  void on_phase_end(Round r, sim::Phase phase) override;
  void on_party_begin(PartyId p, Round r, sim::Phase phase,
                      std::size_t lane) override;
  void on_party_end(PartyId p, Round r, sim::Phase phase,
                    std::size_t lane) override;
  void on_delivered(const sim::Envelope& e) override;

  [[nodiscard]] SpanSink& sink() { return sink_; }

 private:
  struct LaneWindow {
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t parties = 0;
  };
  struct PartyState {
    TrackId track;
    bool have_track = false;
    std::uint64_t begin_ns = 0;              // open span start (send/handle)
    std::uint64_t send_begin_ns = 0;         // last finished send span
    std::uint64_t send_end_ns = 0;
    std::vector<std::uint64_t> inbound;      // flow ids to finish in handle
  };

  TrackId lane_track(std::size_t lane);
  PartyState& party_state(PartyId p);

  SpanSink& sink_;
  sim::Tracer* downstream_;
  std::string prefix_;
  std::mutex mu_;

  TrackId phases_track_;
  TrackId rounds_track_;
  Round round_ = 0;
  std::uint64_t phase_begin_ns_ = 0;

  std::vector<PartyState> parties_;
  std::map<std::size_t, TrackId> lane_tracks_;
  std::map<std::size_t, LaneWindow> lane_windows_;  // current phase only

  std::uint64_t next_flow_id_ = 1;
  // FIFO of undelivered flow ids per (from, to), cleared each round.
  std::map<std::pair<PartyId, PartyId>, std::deque<std::uint64_t>> in_flight_;
  bool adversary_open_ = false;
};

}  // namespace treeaa::obs
