// Generic adversary strategies: silent, crash (with partial broadcast),
// fuzz, puppets and composition.
#include "sim/strategies.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "sim/engine.h"

namespace treeaa::sim {
namespace {

class RecordingProcess final : public Process {
 public:
  void on_round_begin(Round r, Mailer& out) override {
    ByteWriter w;
    w.varint(r);
    out.broadcast(w.bytes());
  }
  void on_round_end(Round r, std::span<const Envelope> inbox) override {
    for (const Envelope& e : inbox) received_[r].push_back(e);
  }
  std::map<Round, std::vector<Envelope>> received_;
};

Engine make_engine(std::size_t n, std::size_t t) {
  Engine e(n, t);
  for (PartyId p = 0; p < n; ++p) {
    e.set_process(p, std::make_unique<RecordingProcess>());
  }
  return e;
}

std::size_t messages_from(const RecordingProcess& proc, Round r,
                          PartyId from) {
  std::size_t count = 0;
  const auto it = proc.received_.find(r);
  if (it == proc.received_.end()) return 0;
  for (const Envelope& e : it->second) {
    if (e.from == from) ++count;
  }
  return count;
}

TEST(SilentAdversary, VictimsNeverSpeak) {
  Engine e = make_engine(4, 1);
  e.set_adversary(std::make_unique<SilentAdversary>(std::vector<PartyId>{2}));
  e.run(3);
  const auto& proc = dynamic_cast<RecordingProcess&>(e.process(0));
  for (Round r = 1; r <= 3; ++r) {
    EXPECT_EQ(messages_from(proc, r, 2), 0u);
    EXPECT_EQ(messages_from(proc, r, 1), 1u);
  }
}

TEST(CrashAdversary, HonestUntilCrashRound) {
  Engine e = make_engine(4, 1);
  e.set_adversary(std::make_unique<CrashAdversary>(
      std::vector<CrashAdversary::Crash>{{2, 3, 0.0}}));
  e.run(4);
  const auto& proc = dynamic_cast<RecordingProcess&>(e.process(0));
  EXPECT_EQ(messages_from(proc, 1, 2), 1u);
  EXPECT_EQ(messages_from(proc, 2, 2), 1u);
  EXPECT_EQ(messages_from(proc, 3, 2), 0u);  // crash round, nothing kept
  EXPECT_EQ(messages_from(proc, 4, 2), 0u);
}

TEST(CrashAdversary, PartialBroadcastOnCrash) {
  Engine e = make_engine(4, 2);
  e.set_adversary(std::make_unique<CrashAdversary>(
      std::vector<CrashAdversary::Crash>{{1, 2, 0.5}}));
  e.run(2);
  // Half of the 4 queued messages (to parties 0..3 in order) survive: the
  // prefix {to 0, to 1}. The copy to party 1 goes to the crasher itself,
  // so exactly one observable message lands at an honest party.
  std::size_t delivered = 0;
  for (PartyId p = 0; p < 4; ++p) {
    if (e.is_corrupt(p)) continue;
    delivered +=
        messages_from(dynamic_cast<RecordingProcess&>(e.process(p)), 2, 1);
  }
  EXPECT_EQ(delivered, 1u);
}

TEST(FuzzAdversary, DeliversGarbageFromVictimsOnly) {
  Engine e = make_engine(5, 2);
  e.set_adversary(std::make_unique<FuzzAdversary>(
      std::vector<PartyId>{0, 3}, /*seed=*/11, /*messages_per_round=*/6));
  e.run(4);
  std::size_t garbage = 0;
  for (PartyId p = 0; p < 5; ++p) {
    if (e.is_corrupt(p)) continue;
    const auto& proc = dynamic_cast<RecordingProcess&>(e.process(p));
    for (const auto& [r, inbox] : proc.received_) {
      for (const Envelope& env : inbox) {
        if (env.from == 0 || env.from == 3) ++garbage;
      }
    }
  }
  EXPECT_GT(garbage, 0u);
  EXPECT_EQ(e.stats().total_messages(),
            e.stats().honest_messages() + 6 * 4);
}

/// A puppet that broadcasts a recognizable tag.
class TaggedProcess final : public Process {
 public:
  explicit TaggedProcess(std::uint8_t tag) : tag_(tag) {}
  void on_round_begin(Round, Mailer& out) override {
    out.broadcast(Bytes{tag_});
  }
  void on_round_end(Round r, std::span<const Envelope> inbox) override {
    rounds_seen_ = r;
    last_inbox_size_ = inbox.size();
  }
  std::uint8_t tag_;
  Round rounds_seen_ = 0;
  std::size_t last_inbox_size_ = 0;
};

TEST(PuppetAdversary, PuppetsSendAndReceiveLikeHonestParties) {
  Engine e = make_engine(4, 1);
  std::vector<PuppetAdversary::Puppet> puppets;
  auto proc = std::make_unique<TaggedProcess>(0xAB);
  auto* proc_ptr = proc.get();
  puppets.push_back({2, std::move(proc), nullptr});
  e.set_adversary(std::make_unique<PuppetAdversary>(std::move(puppets)));
  e.run(3);
  // The puppet's messages reach honest parties...
  const auto& honest = dynamic_cast<RecordingProcess&>(e.process(0));
  EXPECT_EQ(messages_from(honest, 1, 2), 1u);
  EXPECT_EQ(honest.received_.at(1)[2].payload, Bytes{0xAB});
  // ...and the puppet received the full round traffic itself.
  EXPECT_EQ(proc_ptr->rounds_seen_, 3u);
  EXPECT_EQ(proc_ptr->last_inbox_size_, 4u);
}

// Puppet inboxes are filled through a party -> puppet slot map, which
// holds one puppet per party.
TEST(PuppetAdversary, RejectsTwoPuppetsForOneParty) {
  std::vector<PuppetAdversary::Puppet> puppets;
  puppets.push_back({2, std::make_unique<TaggedProcess>(0x01), nullptr});
  puppets.push_back({3, std::make_unique<TaggedProcess>(0x02), nullptr});
  puppets.push_back({2, std::make_unique<TaggedProcess>(0x03), nullptr});
  EXPECT_THROW(PuppetAdversary(std::move(puppets)), std::invalid_argument);
}

TEST(ComposedAdversary, RunsAllParts) {
  Engine e = make_engine(5, 2);
  std::vector<std::unique_ptr<Adversary>> parts;
  parts.push_back(
      std::make_unique<SilentAdversary>(std::vector<PartyId>{0}));
  parts.push_back(std::make_unique<FuzzAdversary>(std::vector<PartyId>{4},
                                                  /*seed=*/3, 2));
  e.set_adversary(std::make_unique<ComposedAdversary>(std::move(parts)));
  e.run(2);
  EXPECT_TRUE(e.is_corrupt(0));
  EXPECT_TRUE(e.is_corrupt(4));
  const auto& proc = dynamic_cast<RecordingProcess&>(e.process(1));
  EXPECT_EQ(messages_from(proc, 1, 0), 0u);  // silent
}

TEST(Helpers, FirstAndRandomParties) {
  EXPECT_EQ(first_parties(3), (std::vector<PartyId>{0, 1, 2}));
  Rng rng(17);
  const auto picked = random_parties(10, 4, rng);
  EXPECT_EQ(picked.size(), 4u);
  EXPECT_TRUE(std::is_sorted(picked.begin(), picked.end()));
  EXPECT_EQ(std::adjacent_find(picked.begin(), picked.end()), picked.end());
  for (const PartyId p : picked) EXPECT_LT(p, 10u);
  EXPECT_THROW((void)random_parties(3, 4, rng), std::invalid_argument);
}

}  // namespace
}  // namespace treeaa::sim
