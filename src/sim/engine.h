// The synchronous network engine.
//
// Implements the paper's model (§2) exactly: n parties, fully connected,
// authenticated channels, lock-step rounds, up to t Byzantine corruptions
// chosen by an adaptive rushing adversary. Being a discrete-event model
// rather than a wall-clock one, round counts produced by the engine are the
// paper's round-complexity measure with no measurement noise.
//
// Round r proceeds as:
//   1. send phase   — every honest Process::on_round_begin(r) queues traffic;
//   2. adversary    — Adversary::act sees all queued traffic (rushing), may
//                     inject corrupt messages and adaptively corrupt; it may
//                     fan per-puppet work out on the engine's lanes through
//                     RoundView::run_on_lanes;
//   3. delivery     — every party's inbox (sorted by sender) is handed to
//                     Process::on_round_end(r); corrupt parties receive
//                     nothing (their behaviour is the adversary's).
//
// Everything is deterministic given the processes and the adversary, so any
// execution reproduces exactly — including at EngineOptions::threads > 1,
// where the send and delivery phases fan honest parties out over a worker
// pool with static chunking (the adversary may borrow the same lanes). Each
// send lane stages its messages, and the engine merges the staging in lane
// order after the pool's barrier, so queued-message order, the adversary's
// rushing view, traces, stats, and every report are byte-identical to the
// serial engine (docs/PERF.md).
#pragma once

#include <memory>
#include <vector>

#include "common/check.h"
#include "perf/arena.h"
#include "perf/parallel.h"
#include "sim/adversary.h"
#include "sim/envelope.h"
#include "sim/link.h"
#include "sim/process.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace treeaa::sim {

struct EngineOptions {
  /// The most worker lanes the honest send and delivery phases may take
  /// (lent to the adversary through RoundView::run_on_lanes). 1 (the
  /// default) runs fully serial; 0 means one lane per hardware thread. The
  /// engine grants Engine::lanes_for(n, threads): at most one lane per
  /// eight parties, so a small run stays serial, where a fork-join dispatch
  /// costs more than it saves. Any value produces byte-identical executions
  /// — threads only change wall-clock.
  std::size_t threads = 1;
};

class Engine {
 public:
  /// An engine for n parties of which at most t may ever be corrupt.
  Engine(std::size_t n, std::size_t t, EngineOptions options = {});

  /// The lanes an engine for n parties takes when asked for `threads`
  /// (0 = one per hardware thread): min(threads, max(1, n / 8)). Every
  /// phase's work grows with n, and below eight parties per lane a lane's
  /// share of a phase does not pay for its dispatch (docs/PERF.md).
  [[nodiscard]] static std::size_t lanes_for(std::size_t n,
                                             std::size_t threads);

  /// Installs the honest protocol process for party p. Every party needs a
  /// process before run() (corrupt-from-start parties included: adaptive
  /// adversaries decide lazily whom to corrupt).
  void set_process(PartyId p, std::unique_ptr<Process> process);

  /// Installs the adversary. Defaults to NullAdversary.
  void set_adversary(std::unique_ptr<Adversary> adversary);

  /// Attaches an execution tracer (non-owning; must outlive the engine).
  /// nullptr detaches.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Attaches a lossy link layer applied to all traffic at delivery time
  /// (non-owning; must outlive the engine). nullptr (the default) keeps the
  /// paper's perfect channels.
  void set_link_layer(LinkLayer* link_layer) { link_layer_ = link_layer; }

  /// Runs rounds current+1 .. current+rounds. May be called repeatedly to
  /// run protocols in phases.
  void run(Round rounds);

  [[nodiscard]] std::size_t n() const { return processes_.size(); }
  [[nodiscard]] std::size_t t() const { return t_; }
  /// The lanes granted: lanes_for(n, EngineOptions::threads).
  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] Round rounds_elapsed() const { return round_; }

  [[nodiscard]] bool is_corrupt(PartyId p) const;
  [[nodiscard]] const std::vector<PartyId>& corrupt() const {
    return corrupt_list_;
  }
  [[nodiscard]] std::vector<PartyId> honest() const;

  [[nodiscard]] const TrafficStats& stats() const { return stats_; }

  /// The leased worker pool, or nullptr when the engine runs serial. The
  /// obs drivers snapshot its DispatchStats to report per-run deltas.
  [[nodiscard]] const perf::WorkerPool* pool() const { return pool_.get(); }

  /// The process installed for p (for result extraction by harnesses).
  [[nodiscard]] Process& process(PartyId p);

 private:
  friend class RoundView;

  std::vector<Envelope> corrupt_party(PartyId p);
  void inject(PartyId from, PartyId to, perf::Payload payload);
  void send_phase(Round r);
  void send_phase_parallel(Round r);
  void delivery_phase(Round r);

  std::size_t t_;
  std::size_t threads_;
  Round round_ = 0;
  bool started_ = false;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<bool> corrupt_;
  std::vector<PartyId> corrupt_list_;
  std::unique_ptr<Adversary> adversary_;
  Tracer* tracer_ = nullptr;
  LinkLayer* link_layer_ = nullptr;
  std::vector<Envelope> queued_;  // messages queued for the current round

  // Delivery scratch, persistent across rounds so the hot path allocates
  // only on high-water marks: the round's traffic is stably counting-sorted
  // (by sender, then by recipient) into one flat array whose per-recipient
  // slices are the inboxes, and payload capacity is recycled through the
  // pool once every inbox has been consumed.
  std::vector<Envelope> sort_scratch_;      // after the by-sender pass
  std::vector<Envelope> delivery_;          // after the by-recipient pass
  std::vector<std::size_t> counts_;         // counting-sort counters
  std::vector<std::size_t> inbox_offsets_;  // recipient p owns [p, p + 1)

  // Parallel-phase state. arenas_[lane] recycles payload control blocks for
  // the Mailer running on that lane (one arena at threads_ == 1).
  //
  // Lane handoff is fork-join: every lane stages its envelopes into
  // staging_[lane], and once the pool's barrier returns the dispatching
  // thread appends the staging vectors to queued_ in lane order, so queued_
  // receives messages in exactly the serial party-ascending order. Staging
  // keeps its capacity across rounds.
  // recycle_cursor_ round-robins freed payloads across arenas so every
  // lane's pool stays warm.
  perf::WorkerPool::Lease pool_;
  std::vector<perf::PayloadPool> arenas_;
  std::vector<std::vector<Envelope>> staging_;
  std::size_t recycle_cursor_ = 0;

  TrafficStats stats_;
};

}  // namespace treeaa::sim
