// The Byzantine adversary interface.
//
// The paper's adversary (§2) is computationally unbounded, adaptive, and —
// as is standard in the synchronous model — *rushing*: in every round it
// observes the honest parties' messages before choosing the corrupt
// parties' messages. The engine models this by running the honest send
// phase first and then handing the adversary a RoundView through which it
// can (a) read all traffic queued this round, (b) inject arbitrary messages
// from corrupt parties, and (c) adaptively corrupt further parties up to
// its budget t. Corrupting a party mid-round retracts the messages its
// honest process just queued (the strongest reasonable semantics).
//
// The adversary phase may fan out on the engine's lanes: RoundView lends
// the engine's worker pool through run_on_lanes (same static chunking as
// the honest phases), so per-puppet work runs in parallel while everything
// that touches the view or shared adversary state stays on the calling
// thread, and executions remain byte-identical at any thread count.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "perf/arena.h"
#include "perf/parallel.h"
#include "sim/envelope.h"

namespace treeaa::sim {

class Engine;

/// The adversary's per-round window into the network. Only valid during
/// Adversary::act.
class RoundView {
 public:
  RoundView(Engine& engine, Round round) : engine_(engine), round_(round) {}

  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] std::size_t n() const;
  [[nodiscard]] std::size_t t() const;

  /// Parties currently corrupt.
  [[nodiscard]] const std::vector<PartyId>& corrupt() const;
  [[nodiscard]] bool is_corrupt(PartyId p) const;
  [[nodiscard]] std::size_t corruption_budget_left() const;

  /// All messages queued for delivery this round so far (honest traffic
  /// first, in party order; then adversarial injections in send order).
  [[nodiscard]] std::span<const Envelope> queued() const;

  /// Injects a message from a corrupt party. `from` must be corrupt. A
  /// forwarded envelope's payload moves through still shared (Bytes
  /// converts implicitly); receivers only read it.
  void send(PartyId from, PartyId to, perf::Payload payload);

  /// Sends `payload` from a corrupt party to every party, interned once and
  /// shared across all n envelopes (like Mailer::broadcast).
  void broadcast(PartyId from, const Bytes& payload);

  /// Runs `slice` over [0, count) on the engine's lanes, with the static
  /// chunking of the honest phases; returns after every lane finished (the
  /// lowest lane's exception is rethrown). At one lane it runs
  /// slice(0, 0, count) inline. Slices must only touch per-index state: the
  /// view itself is not safe to call from them, except arena(lane).
  void run_on_lanes(std::size_t count, const perf::WorkerPool::Slice& slice);

  /// The engine's payload arena for `lane`, for a Mailer inside a
  /// run_on_lanes slice: it is safe to use from the slice running on that
  /// lane only (arenas are not thread-safe), and never outside a slice.
  [[nodiscard]] perf::PayloadPool* arena(std::size_t lane);

  /// Adaptively corrupts `p` (requires budget). The messages p queued this
  /// round are retracted and returned (so the adversary can selectively
  /// re-deliver them, e.g. to model a crash mid-broadcast); p's Process is
  /// never invoked again.
  std::vector<Envelope> corrupt(PartyId p);

 private:
  Engine& engine_;
  Round round_;
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Called once before round 1 with the system size; the adversary may
  /// corrupt its initial set here (a static adversary does all corruption
  /// here, an adaptive one may spread it over rounds).
  virtual void init(RoundView& view) { (void)view; }

  /// Called every round after the honest send phase (rushing).
  virtual void act(RoundView& view) = 0;
};

/// The absent adversary: corrupts nobody, sends nothing.
class NullAdversary final : public Adversary {
 public:
  void act(RoundView& view) override { (void)view; }
};

}  // namespace treeaa::sim
