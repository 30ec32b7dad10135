// Batched gradecast (Ben-Or, Dolev & Hoch — the paper's reference [6]).
//
// Gradecast is a broadcast-with-confidence primitive: a leader distributes a
// value and every party outputs a (value, grade) pair with grade ∈ {0,1,2}.
// With t < n/3 Byzantine parties it guarantees:
//
//   G1 (honest leader)   — if the leader is honest, every honest party
//                          outputs (v_leader, 2);
//   G2 (graded agreement)— if some honest party outputs (v, 2), every honest
//                          party outputs (v, grade >= 1);
//   G3 (value binding)   — any two honest parties with grades >= 1 hold the
//                          same value.
//
// G1–G3 are exactly what RealAA's detect-and-ignore mechanism needs: an
// equivocating leader can split honest parties between grade 2 and grade 1
// (or 1 and 0) at most; any party that sees grade <= 1 knows the leader is
// Byzantine and ignores it forever, so each Byzantine party can introduce
// inconsistencies in at most one iteration (paper §4).
//
// This implementation runs n instances in parallel — every party leads the
// instance of its own id — in exactly 3 rounds (Remark 3 of the paper),
// which is what one RealAA iteration consumes.
//
// BatchGradecast is not a sim::Process itself; protocols embed it and
// forward their rounds, offset into the 3-step schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "gradecast/wire.h"
#include "sim/process.h"

namespace treeaa::gradecast {

/// Number of synchronous rounds a batch takes.
inline constexpr std::size_t kRounds = 3;

struct GradedValue {
  /// Engaged iff grade >= 1.
  std::optional<Bytes> value;
  int grade = 0;
};

/// The key under which BatchGradecast memoizes a step tally of `tag`
/// messages of `n` slots, with `k` counters per leader, on the first
/// counted payload of an inbox (perf::MemoSlot::kInboxTally).
[[nodiscard]] std::uint64_t tally_memo_key(std::uint8_t tag, std::size_t n,
                                           std::size_t k);

class BatchGradecast {
 public:
  /// Party `self` of `n` joins a batch, leading with `my_value`.
  ///
  /// `deny` lists leaders this party refuses to assist (empty = none): it
  /// echoes and supports ⊥ for them, while still grading their instances
  /// normally. RealAA denies leaders in its fault set; once >= t + 1 honest
  /// parties deny a leader, that leader can never again reach n - t echoes,
  /// so its gradecasts end at grade 0 for everyone — the "ignored in all
  /// future iterations" mechanism of the paper's §4.
  BatchGradecast(PartyId self, std::size_t n, std::size_t t, Bytes my_value,
                 std::vector<bool> deny = {});

  /// Drives sub-round `step` ∈ {0, 1, 2}; steps must be driven in order.
  void on_step_begin(std::size_t step, sim::Mailer& out);
  void on_step_end(std::size_t step, std::span<const sim::Envelope> inbox);

  [[nodiscard]] bool finished() const { return next_step_ == kRounds; }

  /// Per-leader outputs; valid once finished().
  [[nodiscard]] const std::vector<GradedValue>& results() const;

 private:
  /// A Misra–Gries counter: a candidate value for one leader, its count,
  /// and the position in order_ of the counted message `value` points into.
  struct Counter {
    ByteView value;
    std::uint32_t count = 0;
    std::uint32_t pos = 0;
  };

  /// One leader's counters, at counters_[l * k_, l * k_ + live).
  struct Tally {
    std::size_t live = 0;
    /// No value was ever cancelled out, so every count is exact.
    bool exact = true;
  };

  /// Tallies one echo/support round, keeping `k` counters per leader. Per
  /// sender, the first syntactically valid message with the right tag
  /// counts; malformed attempts are skipped and later messages from the
  /// same sender are ignored. One pass collects the counted messages in
  /// inbox order (order_; decode_slots reads a shared payload's slot index
  /// from its memo). Then the tally comes from one of three places:
  ///
  ///  * the first counted payload's tally memo (perf::MemoSlot::kInboxTally)
  ///    when its recorded counted sequence — one (sender, content stamp)
  ///    pair per counted message — equals this receiver's, element by
  ///    element. It holds each leader's best survivor and its exact count,
  ///    which become this receiver's only counter for that leader. In the
  ///    synchronous model every receiver of a round's broadcasts counts the
  ///    same shared payloads in the same order, so all but the first
  ///    receiver take this path;
  ///  * tally_local(), published as that memo when this receiver is the
  ///    first to claim it (a shared first payload with an empty memo);
  ///  * tally_local() alone, for everyone else.
  ///
  /// The tally is a function of (tag, n, k) and the counted bytes only, so
  /// sharing it is exact. It folds every leader, including the ones this
  /// receiver denies: Misra–Gries counters are per leader and independent
  /// of each other, and step 1 never reads a denied leader's counters, so
  /// on every leader that is read the unfiltered tally equals one that
  /// skipped the denied leaders' folds.
  void tally_round(std::uint8_t tag, std::span<const sim::Envelope> inbox,
                   std::size_t k);

  /// The tally of the messages in order_, in two linear passes: pass 1
  /// folds each message's slots into the leaders' Misra–Gries counters, so
  /// every value held by more than m / (k + 1) of the m present slots
  /// survives. A leader whose counters never had to cancel holds exact
  /// counts of all its values; for the others, pass 2 re-reads the counted
  /// messages and makes the survivors' counts exact. Without hostile
  /// senders pass 2 is skipped.
  void tally_local(std::uint8_t tag);

  /// Writes the tally memo entry of the tally just computed: the counted
  /// sequence, then per leader the best survivor's (position, offset,
  /// length, count), position kNoSurvivor when none survived.
  void publish_tally(std::vector<std::uint32_t>& entry) const;

  /// Takes the tally from `entry` if its counted sequence equals order_'s;
  /// false otherwise, with the tally state untouched.
  bool take_tally(const std::vector<std::uint32_t>& entry);

  /// Adds one slot value for leader `l`, read from order_[pos], to its
  /// counters.
  void fold(PartyId l, ByteView value, std::uint32_t pos);

  /// Leader `l`'s surviving value with the highest exact count, ties broken
  /// to the lexicographically smallest value; nullptr if none survived.
  [[nodiscard]] const Counter* best(PartyId l) const;

  PartyId self_;
  std::size_t n_;
  std::size_t t_;
  Bytes my_value_;
  std::vector<bool> deny_;
  std::size_t next_step_ = 0;

  // State accumulated across steps.
  std::vector<std::optional<Bytes>> leader_values_;   // per leader (step 0)
  std::vector<std::optional<Bytes>> my_supports_;     // per leader (step 1)
  std::vector<GradedValue> results_;                  // per leader (step 2)

  // Per-round tally scratch, O(n) for t = Θ(n): sized once and reused by
  // every step. Counter views alias inbox payloads and are only used inside
  // the on_step_end call that produced them.
  SlotScratch scratch_;  // decodes of messages no memo serves (unshared)
  std::vector<bool> seen_;  // per sender: a message of it already counts
  std::vector<const sim::Envelope*> order_;  // the counted messages, in
                                             // inbox order
  std::vector<Counter> counters_;  // k_ per leader, see Tally
  std::vector<Tally> tallies_;     // per leader
  std::size_t k_ = 0;              // counters per leader this round
};

}  // namespace treeaa::gradecast
