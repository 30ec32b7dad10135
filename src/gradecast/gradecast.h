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
  /// A Misra–Gries counter: a candidate value for one leader and its count.
  struct Counter {
    ByteView value;
    std::size_t count = 0;
  };

  /// One leader's counters, at counters_[l * k_, l * k_ + live).
  struct Tally {
    std::size_t live = 0;
    /// No value was ever cancelled out, so every count is exact.
    bool exact = true;
  };

  /// Tallies one echo/support round in two linear passes over the inbox,
  /// keeping `k` counters per leader (leaders this party denies are
  /// skipped when `skip_denied`). Per sender, the first syntactically
  /// valid message with the right tag counts; malformed attempts are
  /// skipped and later messages from the same sender are ignored.
  ///
  /// Pass 1 decodes each counted message into `row_` and folds it into the
  /// leaders' Misra–Gries counters, so every value held by more than
  /// m / (k + 1) of the m present slots survives. A leader whose counters
  /// never had to cancel holds exact counts of all its values; for the
  /// others, pass 2 re-decodes the counted messages and makes the
  /// survivors' counts exact. Without hostile senders pass 2 is skipped.
  void tally_round(std::uint8_t tag, std::span<const sim::Envelope> inbox,
                   std::size_t k, bool skip_denied);

  /// Adds one slot value for leader `l` to its counters.
  void fold(PartyId l, ByteView value);

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

  // Per-round tally scratch, O(n) for t = Θ(n): sized once by the
  // constructor and reused by every step. The views alias inbox payloads
  // and are only used inside the on_step_end call that produced them.
  std::vector<SlotView> row_;  // the slots of the sender being decoded
  std::vector<const sim::Envelope*> counted_;  // per sender: the message
                                               // that counts, or nullptr
  std::vector<Counter> counters_;  // k_ per leader, see Tally
  std::vector<Tally> tallies_;     // per leader
  std::size_t k_ = 0;              // counters per leader this round
};

}  // namespace treeaa::gradecast
