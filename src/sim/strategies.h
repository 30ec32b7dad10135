// Protocol-agnostic Byzantine strategies.
//
// These adversaries make sense against any protocol: staying silent,
// crashing mid-execution (possibly mid-broadcast), and flooding the network
// with garbage. Protocol-aware strategies (gradecast equivocators, RealAA
// range stretchers, the Fekete budget-split adversary) live next to the
// protocols they attack.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/adversary.h"
#include "sim/process.h"

namespace treeaa::sim {

/// Corrupts a fixed set at init and never sends anything: the classic
/// crash-from-start / silent-Byzantine adversary.
class SilentAdversary final : public Adversary {
 public:
  explicit SilentAdversary(std::vector<PartyId> victims);
  void init(RoundView& view) override;
  void act(RoundView& view) override {(void)view;}

 private:
  std::vector<PartyId> victims_;
};

/// Crashes each victim at its own round: the party behaves honestly before
/// that round; in its crash round a prefix of its queued messages (chosen by
/// `delivered_fraction` of them) is still delivered, modelling a crash in
/// the middle of a broadcast.
class CrashAdversary final : public Adversary {
 public:
  struct Crash {
    PartyId party;
    Round round;                     // crash happens during this round
    double delivered_fraction = 0.0; // portion of that round's sends kept
  };

  explicit CrashAdversary(std::vector<Crash> crashes);
  void act(RoundView& view) override;

 private:
  std::vector<Crash> crashes_;
};

/// Corrupts a fixed set and floods random recipients with random byte
/// strings every round. Exercises every protocol parser's garbage handling.
class FuzzAdversary final : public Adversary {
 public:
  FuzzAdversary(std::vector<PartyId> victims, std::uint64_t seed,
                std::size_t messages_per_round = 8,
                std::size_t max_payload = 64);
  void init(RoundView& view) override;
  void act(RoundView& view) override;

 private:
  std::vector<PartyId> victims_;
  Rng rng_;
  std::size_t messages_per_round_;
  std::size_t max_payload_;
};

/// Corrupts a fixed set; every round each victim re-sends payloads recorded
/// from *honest* traffic in earlier rounds to random recipients. Replayed
/// messages are syntactically perfect protocol messages — just stale —
/// which probes round/phase scoping in protocol parsers (a parser that
/// trusts message contents over the round it arrived in will break).
class ReplayAdversary final : public Adversary {
 public:
  ReplayAdversary(std::vector<PartyId> victims, std::uint64_t seed,
                  std::size_t messages_per_round = 8);
  void init(RoundView& view) override;
  void act(RoundView& view) override;

 private:
  std::vector<PartyId> victims_;
  Rng rng_;
  std::size_t messages_per_round_;
  std::vector<Bytes> recorded_;
};

/// Runs an arbitrary Process for each corrupt party ("Byzantine = honest
/// code with a hostile configuration"): e.g. a RealAA process fed an input
/// far outside the honest range, the classic validity attack. The puppets
/// run inside the adversary with full delivery, so they are indistinguishable
/// from honest parties on the wire.
///
/// Both halves of a puppet round run on the engine's lanes
/// (RoundView::run_on_lanes), so puppet Processes must be lane-safe like
/// honest ones. The outboxes are merged in puppet order on the calling
/// thread, which is also the only place send filters run.
class PuppetAdversary final : public Adversary {
 public:
  struct Puppet {
    PartyId party;
    std::unique_ptr<Process> process;
    /// Optional send filter: return false to drop the outgoing message.
    /// This models *omission faults* (one of Fekete's fault classes): the
    /// party runs the protocol correctly but some of its messages are lost.
    /// Incoming delivery is unaffected. nullptr = no drops.
    std::function<bool(const Envelope&)> send_filter;
  };

  /// A send filter dropping each message independently with probability
  /// `drop_probability` (deterministic given `seed`).
  [[nodiscard]] static std::function<bool(const Envelope&)> random_drops(
      double drop_probability, std::uint64_t seed);

  /// At most one puppet per party.
  explicit PuppetAdversary(std::vector<Puppet> puppets);
  void init(RoundView& view) override;
  void act(RoundView& view) override;

 private:
  std::vector<Puppet> puppets_;
  // Per-puppet scratch, index-aligned with puppets_ and kept across rounds
  // for its capacity: the puppet's sends, then its delivered traffic.
  std::vector<std::vector<Envelope>> outboxes_;
  std::vector<std::vector<Envelope>> inboxes_;
  // slot_[p]: index in puppets_ of party p's puppet, or puppets_.size().
  std::vector<std::size_t> slot_;
  Round local_round_ = 0;
};

/// Runs several adversaries side by side (each typically gating itself to a
/// round window); corruption requests are idempotent across them.
class ComposedAdversary final : public Adversary {
 public:
  explicit ComposedAdversary(std::vector<std::unique_ptr<Adversary>> parts);
  void init(RoundView& view) override;
  void act(RoundView& view) override;

 private:
  std::vector<std::unique_ptr<Adversary>> parts_;
};

/// Utility: the first k party ids, a common static corruption set.
[[nodiscard]] std::vector<PartyId> first_parties(std::size_t k);

/// Utility: k distinct party ids drawn uniformly from [0, n).
[[nodiscard]] std::vector<PartyId> random_parties(std::size_t n,
                                                  std::size_t k, Rng& rng);

}  // namespace treeaa::sim
