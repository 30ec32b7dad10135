// Synchronous engine semantics: delivery, ordering, authentication, rushing
// adversary, adaptive corruption, traffic accounting, determinism.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <map>

#include "sim/strategies.h"

namespace treeaa::sim {
namespace {

/// Broadcasts [self, round] every round and records everything received.
class ChatterProcess final : public Process {
 public:
  void on_round_begin(Round r, Mailer& out) override {
    ByteWriter w;
    w.varint(out.self());
    w.varint(r);
    out.broadcast(w.bytes());
    ++sends_;
  }

  void on_round_end(Round r, std::span<const Envelope> inbox) override {
    for (const Envelope& e : inbox) received_[r].push_back(e);
  }

  std::map<Round, std::vector<Envelope>> received_;
  int sends_ = 0;
};

/// Sends one direct message to a fixed peer in round 1 only.
class OneShotProcess final : public Process {
 public:
  explicit OneShotProcess(PartyId to) : to_(to) {}
  void on_round_begin(Round r, Mailer& out) override {
    if (r == 1) out.send(to_, Bytes{42});
  }
  void on_round_end(Round, std::span<const Envelope> inbox) override {
    for (const Envelope& e : inbox) got_.push_back(e);
  }
  PartyId to_;
  std::vector<Envelope> got_;
};

Engine make_engine(std::size_t n, std::size_t t) {
  Engine e(n, t);
  for (PartyId p = 0; p < n; ++p) {
    e.set_process(p, std::make_unique<ChatterProcess>());
  }
  return e;
}

TEST(Engine, BroadcastsReachEveryoneIncludingSelf) {
  Engine e = make_engine(4, 1);
  e.run(1);
  for (PartyId p = 0; p < 4; ++p) {
    auto& proc = dynamic_cast<ChatterProcess&>(e.process(p));
    ASSERT_EQ(proc.received_[1].size(), 4u);
  }
}

TEST(Engine, InboxSortedBySender) {
  Engine e = make_engine(5, 1);
  e.run(2);
  auto& proc = dynamic_cast<ChatterProcess&>(e.process(3));
  for (const auto& [round, inbox] : proc.received_) {
    for (std::size_t i = 0; i + 1 < inbox.size(); ++i) {
      EXPECT_LE(inbox[i].from, inbox[i + 1].from);
    }
  }
}

TEST(Engine, FromFieldIsAuthentic) {
  Engine e = make_engine(3, 1);
  e.run(1);
  auto& proc = dynamic_cast<ChatterProcess&>(e.process(0));
  for (const Envelope& env : proc.received_[1]) {
    ByteReader r(env.payload);
    EXPECT_EQ(r.varint(), env.from);  // sender wrote its own id; they match
  }
}

TEST(Engine, DirectMessageOnlyReachesRecipient) {
  Engine e(3, 1);
  e.set_process(0, std::make_unique<OneShotProcess>(2));
  e.set_process(1, std::make_unique<OneShotProcess>(2));
  e.set_process(2, std::make_unique<OneShotProcess>(0));
  e.run(1);
  EXPECT_EQ(dynamic_cast<OneShotProcess&>(e.process(2)).got_.size(), 2u);
  EXPECT_EQ(dynamic_cast<OneShotProcess&>(e.process(0)).got_.size(), 1u);
  EXPECT_EQ(dynamic_cast<OneShotProcess&>(e.process(1)).got_.size(), 0u);
}

TEST(Engine, MessagesDoNotCrossRounds) {
  Engine e(2, 1);
  e.set_process(0, std::make_unique<OneShotProcess>(1));
  e.set_process(1, std::make_unique<OneShotProcess>(0));
  e.run(3);
  const auto& got = dynamic_cast<OneShotProcess&>(e.process(1)).got_;
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].round, 1u);
}

TEST(Engine, RunsInPhases) {
  Engine e = make_engine(3, 1);
  e.run(2);
  EXPECT_EQ(e.rounds_elapsed(), 2u);
  e.run(3);
  EXPECT_EQ(e.rounds_elapsed(), 5u);
  auto& proc = dynamic_cast<ChatterProcess&>(e.process(0));
  EXPECT_EQ(proc.sends_, 5);
}

TEST(Engine, RejectsInvalidConfigs) {
  EXPECT_THROW(Engine(0, 0), std::invalid_argument);
  EXPECT_THROW(Engine(3, 3), std::invalid_argument);  // t must be < n
}

TEST(Engine, RequiresProcessesBeforeRun) {
  Engine e(2, 1);
  e.set_process(0, std::make_unique<ChatterProcess>());
  EXPECT_THROW(e.run(1), std::invalid_argument);
}

TEST(Engine, TrafficAccounting) {
  Engine e = make_engine(4, 1);
  e.run(2);
  const auto& stats = e.stats();
  ASSERT_EQ(stats.per_round.size(), 2u);
  // 4 parties broadcasting to 4 = 16 messages per round.
  EXPECT_EQ(stats.per_round[0].honest_messages, 16u);
  EXPECT_EQ(stats.total_messages(), 32u);
  EXPECT_GT(stats.honest_bytes(), 0u);
  EXPECT_EQ(stats.per_round[0].adversary_messages, 0u);
}

// --- Adversary interactions --------------------------------------------------

/// Corrupts party 0 at init and injects a forged-looking message each round.
class InjectingAdversary final : public Adversary {
 public:
  void init(RoundView& view) override { view.corrupt(0); }
  void act(RoundView& view) override {
    view.send(0, 1, Bytes{9, 9});
    saw_messages_ = view.queued().size();
  }
  std::size_t saw_messages_ = 0;
};

TEST(Engine, CorruptPartyProcessIsNeverInvoked) {
  Engine e = make_engine(4, 1);
  e.set_adversary(std::make_unique<InjectingAdversary>());
  e.run(2);
  auto& corrupt_proc = dynamic_cast<ChatterProcess&>(e.process(0));
  EXPECT_EQ(corrupt_proc.sends_, 0);
  EXPECT_TRUE(corrupt_proc.received_.empty());
  EXPECT_TRUE(e.is_corrupt(0));
  EXPECT_EQ(e.honest(), (std::vector<PartyId>{1, 2, 3}));
}

TEST(Engine, RushingAdversarySeesHonestTrafficBeforeDelivery) {
  Engine e = make_engine(4, 1);
  auto adv = std::make_unique<InjectingAdversary>();
  auto* adv_ptr = adv.get();
  e.set_adversary(std::move(adv));
  e.run(1);
  // 3 honest parties broadcast to 4 each = 12 messages, plus our own
  // injection appended as we observed.
  EXPECT_EQ(adv_ptr->saw_messages_, 13u);
}

TEST(Engine, InjectedMessagesAreDelivered) {
  Engine e = make_engine(3, 1);
  e.set_adversary(std::make_unique<InjectingAdversary>());
  e.run(1);
  auto& proc = dynamic_cast<ChatterProcess&>(e.process(1));
  ASSERT_EQ(proc.received_[1].size(), 3u);  // 2 honest + 1 injected
  bool found = false;
  for (const Envelope& env : proc.received_[1]) {
    if (env.from == 0 && env.payload == Bytes{9, 9}) found = true;
  }
  EXPECT_TRUE(found);
}

/// Tries to send from an honest party — must be rejected.
class ForgingAdversary final : public Adversary {
 public:
  void act(RoundView& view) override { view.send(1, 2, Bytes{1}); }
};

TEST(Engine, AdversaryCannotForgeHonestSender) {
  Engine e = make_engine(3, 1);
  e.set_adversary(std::make_unique<ForgingAdversary>());
  EXPECT_THROW(e.run(1), std::invalid_argument);
}

/// Adaptively corrupts party 2 in round 2 and replays only one retracted
/// message.
class MidRunCorruptor final : public Adversary {
 public:
  void act(RoundView& view) override {
    if (view.round() != 2) return;
    auto retracted = view.corrupt(2);
    retracted_count_ = retracted.size();
    if (!retracted.empty()) {
      view.send(2, retracted[0].to, std::move(retracted[0].payload));
    }
  }
  std::size_t retracted_count_ = 0;
};

TEST(Engine, AdaptiveCorruptionRetractsQueuedMessages) {
  Engine e = make_engine(4, 1);
  auto adv = std::make_unique<MidRunCorruptor>();
  auto* adv_ptr = adv.get();
  e.set_adversary(std::move(adv));
  e.run(3);
  EXPECT_EQ(adv_ptr->retracted_count_, 4u);  // the whole broadcast
  // Party 2 behaved honestly in round 1, was silenced from round 2 on
  // except the single replayed message.
  auto& proc = dynamic_cast<ChatterProcess&>(e.process(1));
  EXPECT_EQ(proc.received_[1].size(), 4u);
  std::size_t from2_r2 = 0;
  for (const Envelope& env : proc.received_[2]) {
    if (env.from == 2) ++from2_r2;
  }
  const auto& proc0 = dynamic_cast<ChatterProcess&>(e.process(0));
  std::size_t from2_r2_p0 = 0;
  for (const Envelope& env : proc0.received_.at(2)) {
    if (env.from == 2) ++from2_r2_p0;
  }
  // Exactly one of the four retracted messages was re-delivered in total.
  EXPECT_EQ(from2_r2 + from2_r2_p0, 1u);
  // From round 3 on, party 2 is fully silent.
  for (const Envelope& env : proc.received_[3]) EXPECT_NE(env.from, 2u);
}

/// Exceeds its corruption budget.
class GreedyCorruptor final : public Adversary {
 public:
  void init(RoundView& view) override {
    view.corrupt(0);
    view.corrupt(1);  // budget is 1 — must throw
  }
  void act(RoundView&) override {}
};

TEST(Engine, CorruptionBudgetEnforced) {
  Engine e = make_engine(4, 1);
  e.set_adversary(std::make_unique<GreedyCorruptor>());
  EXPECT_THROW(e.run(1), std::invalid_argument);
}

/// Injects an oversized payload — the memory-bomb guard must trip.
class BombAdversary final : public Adversary {
 public:
  void init(RoundView& view) override { view.corrupt(0); }
  void act(RoundView& view) override {
    view.send(0, 1, Bytes((1u << 24) + 1));
  }
};

TEST(Engine, OversizedPayloadRejected) {
  Engine e = make_engine(3, 1);
  e.set_adversary(std::make_unique<BombAdversary>());
  EXPECT_THROW(e.run(1), std::invalid_argument);
}

/// Tries to send during init (round 0) — forbidden, nothing is deliverable.
class EagerAdversary final : public Adversary {
 public:
  void init(RoundView& view) override {
    view.corrupt(0);
    view.send(0, 1, Bytes{1});
  }
  void act(RoundView&) override {}
};

TEST(Engine, AdversaryCannotSendDuringInit) {
  Engine e = make_engine(3, 1);
  e.set_adversary(std::make_unique<EagerAdversary>());
  EXPECT_THROW(e.run(1), InternalError);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto transcript = [](std::uint64_t seed) {
    Engine e(4, 1);
    for (PartyId p = 0; p < 4; ++p) {
      e.set_process(p, std::make_unique<ChatterProcess>());
    }
    e.set_adversary(std::make_unique<FuzzAdversary>(
        std::vector<PartyId>{0}, seed, 4, 16));
    e.run(5);
    std::vector<Bytes> all;
    for (PartyId p = 1; p < 4; ++p) {
      auto& proc = dynamic_cast<ChatterProcess&>(e.process(p));
      for (auto& [r, inbox] : proc.received_) {
        for (auto& env : inbox) all.push_back(env.payload);
      }
    }
    return all;
  };
  EXPECT_EQ(transcript(7), transcript(7));
  EXPECT_NE(transcript(7), transcript(8));
}

}  // namespace
}  // namespace treeaa::sim
