// Gradecast invariants G1-G3 under honest runs, scripted equivocators,
// silent leaders, fuzz garbage, and denial lists.
#include "gradecast/gradecast.h"

#include <gtest/gtest.h>

#include "gradecast/wire.h"
#include "owned_slots.h"
#include "sim/engine.h"
#include "sim/strategies.h"

namespace treeaa::gradecast {
namespace {

using sim::Engine;
using sim::Envelope;
using sim::Mailer;

/// Drives one BatchGradecast inside the engine.
class GradecastHost final : public sim::Process {
 public:
  GradecastHost(PartyId self, std::size_t n, std::size_t t, Bytes value,
                std::vector<bool> deny = {})
      : batch_(self, n, t, std::move(value), std::move(deny)) {}

  void on_round_begin(Round r, Mailer& out) override {
    if (r <= kRounds) batch_.on_step_begin(r - 1, out);
  }
  void on_round_end(Round r, std::span<const Envelope> inbox) override {
    if (r <= kRounds) batch_.on_step_end(r - 1, inbox);
  }

  BatchGradecast batch_;
};

struct RunOutput {
  // results[p][l] = party p's graded output for leader l (honest p only).
  std::vector<std::vector<GradedValue>> results;
  std::vector<bool> corrupt;
};

RunOutput run_batch(std::size_t n, std::size_t t,
                    const std::vector<Bytes>& values,
                    std::unique_ptr<sim::Adversary> adversary = nullptr,
                    const std::vector<std::vector<bool>>& denies = {}) {
  Engine engine(n, std::max<std::size_t>(t, 1));
  std::vector<GradecastHost*> hosts(n);
  for (PartyId p = 0; p < n; ++p) {
    auto host = std::make_unique<GradecastHost>(
        p, n, t, values[p], denies.empty() ? std::vector<bool>{} : denies[p]);
    hosts[p] = host.get();
    engine.set_process(p, std::move(host));
  }
  if (adversary) engine.set_adversary(std::move(adversary));
  engine.run(kRounds);
  RunOutput out;
  out.results.resize(n);
  out.corrupt.resize(n);
  for (PartyId p = 0; p < n; ++p) {
    out.corrupt[p] = engine.is_corrupt(p);
    if (!out.corrupt[p]) out.results[p] = hosts[p]->batch_.results();
  }
  return out;
}

std::vector<Bytes> tagged_values(std::size_t n) {
  std::vector<Bytes> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = Bytes{static_cast<uint8_t>(i)};
  return v;
}

/// Checks G1-G3 for every leader across all honest parties.
void check_graded_consistency(const RunOutput& out, std::size_t n) {
  for (PartyId l = 0; l < n; ++l) {
    int max_grade = 0, min_grade = 2;
    const Bytes* value_seen = nullptr;
    for (PartyId p = 0; p < n; ++p) {
      if (out.corrupt[p]) continue;
      const GradedValue& gv = out.results[p][l];
      max_grade = std::max(max_grade, gv.grade);
      min_grade = std::min(min_grade, gv.grade);
      EXPECT_EQ(gv.grade >= 1, gv.value.has_value());
      if (gv.grade >= 1) {
        if (value_seen) {
          EXPECT_EQ(*gv.value, *value_seen)
              << "G3 violated for leader " << l;  // value binding
        }
        value_seen = &*gv.value;
      }
    }
    EXPECT_LE(max_grade - min_grade, 1) << "graded agreement for leader "
                                        << l;  // G2 corollary
    if (max_grade == 2) {
      EXPECT_GE(min_grade, 1) << "G2 violated for leader " << l;
    }
  }
}

// --- Honest executions -------------------------------------------------------

TEST(Gradecast, AllHonestEveryoneGradesTwo) {
  const std::size_t n = 4, t = 1;
  const auto out = run_batch(n, t, tagged_values(n));
  for (PartyId p = 0; p < n; ++p) {
    for (PartyId l = 0; l < n; ++l) {
      EXPECT_EQ(out.results[p][l].grade, 2);
      EXPECT_EQ(*out.results[p][l].value, Bytes{static_cast<uint8_t>(l)});
    }
  }
}

TEST(Gradecast, WorksAtLargerScale) {
  const std::size_t n = 13, t = 4;
  const auto out = run_batch(n, t, tagged_values(n));
  for (PartyId p = 0; p < n; ++p) {
    for (PartyId l = 0; l < n; ++l) {
      EXPECT_EQ(out.results[p][l].grade, 2);
    }
  }
  check_graded_consistency(out, n);
}

TEST(Gradecast, EmptyValueIsLegal) {
  const std::size_t n = 4, t = 1;
  std::vector<Bytes> values(n);  // all empty
  const auto out = run_batch(n, t, values);
  for (PartyId p = 0; p < n; ++p) {
    EXPECT_EQ(out.results[p][0].grade, 2);
    EXPECT_TRUE(out.results[p][0].value->empty());
  }
}

TEST(Gradecast, RejectsBadParameters) {
  EXPECT_THROW(BatchGradecast(0, 3, 1, {}), std::invalid_argument);   // n=3t
  EXPECT_THROW(BatchGradecast(5, 4, 1, {}), std::invalid_argument);   // self
  EXPECT_THROW(BatchGradecast(0, 4, 1, {}, std::vector<bool>(3)),
               std::invalid_argument);  // deny size mismatch
}

TEST(Gradecast, StepsMustRunInOrder) {
  BatchGradecast b(0, 4, 1, Bytes{1});
  std::vector<Envelope> sink;
  Mailer m(0, 4, sink, 1);
  EXPECT_THROW(b.on_step_begin(1, m), std::invalid_argument);
  EXPECT_THROW((void)b.results(), InternalError);
}

// --- Faulty leaders ----------------------------------------------------------

TEST(Gradecast, SilentLeaderGradesZeroEverywhere) {
  const std::size_t n = 4, t = 1;
  auto adv = std::make_unique<sim::SilentAdversary>(std::vector<PartyId>{2});
  const auto out = run_batch(n, t, tagged_values(n), std::move(adv));
  for (PartyId p = 0; p < n; ++p) {
    if (out.corrupt[p]) continue;
    EXPECT_EQ(out.results[p][2].grade, 0);
    EXPECT_FALSE(out.results[p][2].value.has_value());
    // Other leaders unaffected.
    EXPECT_EQ(out.results[p][0].grade, 2);
  }
  check_graded_consistency(out, n);
}

/// Leader 0 sends value A to the first half of parties and B to the rest,
/// then participates honestly in echo/support for its own instance.
class EquivocatingLeader final : public sim::Adversary {
 public:
  explicit EquivocatingLeader(std::size_t n) : n_(n) {}

  void init(sim::RoundView& view) override { view.corrupt(0); }

  void act(sim::RoundView& view) override {
    const Bytes a{0xAA}, b{0xBB};
    switch (view.round()) {
      case 1:
        for (PartyId p = 0; p < n_; ++p) {
          view.send(0, p, encode_leader(p < n_ / 2 ? a : b));
        }
        break;
      case 2: {
        // Echo its own split truthfully-per-recipient (keeps the split
        // alive); echo honest leaders truthfully.
        for (PartyId p = 0; p < n_; ++p) {
          std::vector<Slot> slots(n_);
          slots[0] = p < n_ / 2 ? a : b;
          for (PartyId l = 1; l < n_; ++l) {
            slots[l] = Bytes{static_cast<uint8_t>(l)};
          }
          view.send(0, p, encode_slots(kTagEcho, slots));
        }
        break;
      }
      case 3: {
        for (PartyId p = 0; p < n_; ++p) {
          std::vector<Slot> slots(n_);
          slots[0] = p < n_ / 2 ? a : b;
          for (PartyId l = 1; l < n_; ++l) {
            slots[l] = Bytes{static_cast<uint8_t>(l)};
          }
          view.send(0, p, encode_slots(kTagSupport, slots));
        }
        break;
      }
      default:
        break;
    }
  }

  std::size_t n_;
};

TEST(Gradecast, EquivocatingLeaderIsDetectedBySomeHonestParty) {
  for (std::size_t n : {4u, 7u, 10u, 13u}) {
    const std::size_t t = (n - 1) / 3;
    const auto out = run_batch(n, t, tagged_values(n),
                               std::make_unique<EquivocatingLeader>(n));
    // G1-G3 must survive the equivocation...
    check_graded_consistency(out, n);
    // ...and the equivocator cannot earn a uniform grade 2: the minority
    // camp sees at most the majority camp's honest supports, which stay
    // below n - t, so at least one honest party ends at grade <= 1 — the
    // detection event RealAA's deny mechanism is built on.
    int min_grade = 2;
    for (PartyId p = 0; p < n; ++p) {
      if (out.corrupt[p]) continue;
      min_grade = std::min(min_grade, out.results[p][0].grade);
    }
    EXPECT_LE(min_grade, 1) << "n=" << n;
  }
}

TEST(Gradecast, LeaderCrashingMidBatchKeepsInvariants) {
  // The leader's value went out in round 1; the leader crashes during the
  // echo round (round 2), half its echoes delivered. Everything must still
  // be gradedly consistent — a crash is just a weak Byzantine behaviour.
  for (const double kept : {0.0, 0.5, 1.0}) {
    const std::size_t n = 7, t = 2;
    auto adv = std::make_unique<sim::CrashAdversary>(
        std::vector<sim::CrashAdversary::Crash>{{3, 2, kept}});
    const auto out = run_batch(n, t, tagged_values(n), std::move(adv));
    check_graded_consistency(out, n);
    // Other leaders are unaffected.
    for (PartyId p = 0; p < n; ++p) {
      if (out.corrupt[p]) continue;
      EXPECT_EQ(out.results[p][0].grade, 2) << "kept " << kept;
    }
  }
}

// --- Garbage and duplicates --------------------------------------------------

TEST(Gradecast, FuzzGarbageNeverBreaksInvariants) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t n = 7, t = 2;
    auto adv = std::make_unique<sim::FuzzAdversary>(
        std::vector<PartyId>{1, 5}, seed, /*messages_per_round=*/20,
        /*max_payload=*/40);
    const auto out = run_batch(n, t, tagged_values(n), std::move(adv));
    check_graded_consistency(out, n);
    // Honest leaders always deliver at grade 2 despite the noise (G1).
    for (PartyId p = 0; p < n; ++p) {
      if (out.corrupt[p]) continue;
      for (PartyId l = 0; l < n; ++l) {
        if (l == 1 || l == 5) continue;
        EXPECT_EQ(out.results[p][l].grade, 2) << "seed " << seed;
        EXPECT_EQ(*out.results[p][l].value, Bytes{static_cast<uint8_t>(l)});
      }
    }
  }
}

TEST(Gradecast, StaleReplaysNeverBreakInvariants) {
  // Replayed leader/echo/support messages from earlier rounds are
  // well-formed; the step-tag check plus round-scoped delivery must keep
  // them from corrupting grades.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::size_t n = 7, t = 2;
    auto adv = std::make_unique<sim::ReplayAdversary>(
        std::vector<PartyId>{0, 4}, seed, /*messages_per_round=*/20);
    const auto out = run_batch(n, t, tagged_values(n), std::move(adv));
    check_graded_consistency(out, n);
    for (PartyId p = 0; p < n; ++p) {
      if (out.corrupt[p]) continue;
      for (PartyId l = 0; l < n; ++l) {
        if (l == 0 || l == 4) continue;
        EXPECT_EQ(out.results[p][l].grade, 2) << "seed " << seed;
      }
    }
  }
}

/// Sends a valid-looking duplicate leader message with a different value
/// after the honest one — the first valid message must win.
class DuplicateInjector final : public sim::Adversary {
 public:
  void init(sim::RoundView& view) override { view.corrupt(3); }
  void act(sim::RoundView& view) override {
    if (view.round() != 1) return;
    // Leader 3 first sends X to all, then a conflicting duplicate Y.
    view.broadcast(3, encode_leader(Bytes{0x01}));
    view.broadcast(3, encode_leader(Bytes{0x02}));
  }
};

TEST(Gradecast, FirstValidLeaderMessageWins) {
  const std::size_t n = 4, t = 1;
  const auto out =
      run_batch(n, t, tagged_values(n), std::make_unique<DuplicateInjector>());
  for (PartyId p = 0; p < n; ++p) {
    if (out.corrupt[p]) continue;
    EXPECT_EQ(out.results[p][3].grade, 2);
    EXPECT_EQ(*out.results[p][3].value, Bytes{0x01});
  }
}

// --- Denial ------------------------------------------------------------------

TEST(Gradecast, DenialByTplusOneHonestKillsLeader) {
  const std::size_t n = 7, t = 2;
  // t + 1 = 3 honest parties deny leader 6.
  std::vector<std::vector<bool>> denies(n, std::vector<bool>(n, false));
  for (PartyId p = 0; p < 3; ++p) denies[p][6] = true;
  const auto out = run_batch(n, t, tagged_values(n), nullptr, denies);
  for (PartyId p = 0; p < n; ++p) {
    EXPECT_EQ(out.results[p][6].grade, 0) << "party " << p;
  }
  check_graded_consistency(out, n);
}

TEST(Gradecast, DenialByFewerThanTplusOneIsHarmless) {
  const std::size_t n = 7, t = 2;
  std::vector<std::vector<bool>> denies(n, std::vector<bool>(n, false));
  denies[0][6] = true;
  denies[1][6] = true;  // only 2 = t deniers
  const auto out = run_batch(n, t, tagged_values(n), nullptr, denies);
  for (PartyId p = 0; p < n; ++p) {
    EXPECT_EQ(out.results[p][6].grade, 2) << "party " << p;
  }
}

// --- Wire format -------------------------------------------------------------

TEST(GradecastWire, LeaderRoundTrip) {
  const Bytes v{1, 2, 3};
  EXPECT_EQ(*decode_leader(encode_leader(v)), v);
}

TEST(GradecastWire, LeaderRejectsWrongTagAndTrailing) {
  Bytes msg = encode_leader(Bytes{1});
  msg[0] = kTagEcho;
  EXPECT_FALSE(decode_leader(msg).has_value());
  Bytes trailing = encode_leader(Bytes{1});
  trailing.push_back(0);
  EXPECT_FALSE(decode_leader(trailing).has_value());
  EXPECT_FALSE(decode_leader(Bytes{}).has_value());
}

TEST(GradecastWire, SlotsRoundTrip) {
  std::vector<Slot> slots{Bytes{1}, std::nullopt, Bytes{}, Bytes{9, 9}};
  const Bytes msg = encode_slots(kTagSupport, slots);
  const auto decoded = decode_owned(kTagSupport, msg, 4);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, slots);
}

TEST(GradecastWire, SlotsRejectWrongArity) {
  std::vector<Slot> slots{Bytes{1}, Bytes{2}};
  const Bytes msg = encode_slots(kTagEcho, slots);
  EXPECT_FALSE(decode_owned(kTagEcho, msg, 3).has_value());
  EXPECT_FALSE(decode_owned(kTagSupport, msg, 2).has_value());  // wrong tag
}

TEST(GradecastWire, SlotsRejectGarbage) {
  EXPECT_FALSE(decode_owned(kTagEcho, Bytes{kTagEcho, 0xFF, 0xFF}, 4)
                   .has_value());
  EXPECT_FALSE(decode_owned(kTagEcho, Bytes{}, 4).has_value());
}

}  // namespace
}  // namespace treeaa::gradecast
