// The honest-party protocol interface.
//
// The synchronous model (paper §2) proceeds in lock-step rounds: in round r
// every party sends messages, and every message sent in round r is delivered
// by the end of round r. A Process mirrors that exactly:
//
//   on_round_begin(r, out) — decide what to send this round;
//   on_round_end(r, inbox) — consume everything delivered this round.
//
// A Process never blocks and never fails to be scheduled; fault behaviour is
// the Adversary's job, not the Process's.
#pragma once

#include <span>

#include "common/bytes.h"
#include "common/check.h"
#include "common/types.h"
#include "perf/arena.h"
#include "sim/envelope.h"

namespace treeaa::sim {

/// Collects one party's outgoing messages for the current round into a plain
/// vector: queued_ in the serial engine, the lane's staging vector in the
/// parallel one, a puppet's outbox in PuppetAdversary. Messages land in
/// exact send order, which the byte-identity contract depends on.
class Mailer {
 public:
  /// `pool` (optional) recycles payload control blocks and capacity; the
  /// engine passes a per-lane pool, standalone constructions may omit it.
  Mailer(PartyId self, std::size_t n, std::vector<Envelope>& sink,
         Round round, perf::PayloadPool* pool = nullptr)
      : self_(self), n_(n), sink_(&sink), round_(round), pool_(pool) {}

  /// Sends `payload` to party `to`. Sending to self is allowed and the
  /// message is delivered like any other (protocols in this repository count
  /// their own value by receiving it).
  void send(PartyId to, Bytes payload) {
    TREEAA_REQUIRE_MSG(to < n_, "recipient " << to << " out of range");
    sink_->push_back(Envelope{self_, to, round_,
                              pool_ != nullptr
                                  ? pool_->adopt(std::move(payload))
                                  : perf::Payload(std::move(payload))});
  }

  /// Sends the same payload to every party (including self). The payload is
  /// interned once and shared across all n envelopes — O(bytes) per
  /// broadcast instead of O(n * bytes) — which is safe because receivers
  /// only read payloads (and mutators like the link-fault layer detach a
  /// copy-on-write clone first).
  void broadcast(const Bytes& payload) {
    if (n_ == 0) return;
    perf::Payload shared = pool_ != nullptr ? pool_->copy_of(payload)
                                            : perf::Payload(Bytes(payload));
    const PartyId last = static_cast<PartyId>(n_ - 1);
    for (PartyId to = 0; to < last; ++to) {
      sink_->push_back(Envelope{self_, to, round_, shared});
    }
    sink_->push_back(Envelope{self_, last, round_, std::move(shared)});
  }

  [[nodiscard]] PartyId self() const { return self_; }
  [[nodiscard]] std::size_t n() const { return n_; }

 private:
  PartyId self_;
  std::size_t n_;
  std::vector<Envelope>* sink_;
  Round round_;
  perf::PayloadPool* pool_;
};

class Process {
 public:
  virtual ~Process() = default;

  /// Called at the start of round r (r counts from 1). Queue outgoing
  /// messages on `out`; they are delivered at the end of this round.
  virtual void on_round_begin(Round r, Mailer& out) = 0;

  /// Called at the end of round r with every message delivered to this
  /// party this round, sorted by sender id (messages from the same sender
  /// stay in send order). Byzantine senders may deliver anything, including
  /// garbage and duplicates — implementations must tolerate both.
  virtual void on_round_end(Round r, std::span<const Envelope> inbox) = 0;
};

}  // namespace treeaa::sim
