// Bracha reliable broadcast: validity, consistency, totality — under every
// scheduler, with silent and equivocating Byzantine broadcasters.
#include "async/rbc.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "common/rng.h"

namespace treeaa::async {
namespace {

/// Hosts one RbcHub; broadcasts its own value under tag 0 at start when
/// `speak`, and records every delivery.
class RbcHost final : public AsyncProcess {
 public:
  RbcHost(PartyId self, std::size_t n, std::size_t t, Bytes value,
          std::size_t expected_deliveries)
      : hub_(self, n, t),
        value_(std::move(value)),
        expected_(expected_deliveries) {}

  void on_start(Mailbox& out) override { hub_.broadcast(0, value_, out); }

  void on_message(PartyId from, const Bytes& payload, Mailbox& out) override {
    if (!is_rbc_message(payload)) return;
    for (auto& d : hub_.on_message(from, payload, out)) {
      delivered_[{d.broadcaster, d.tag}] = d.payload;
    }
  }

  [[nodiscard]] bool done() const override {
    return delivered_.size() >= expected_;
  }

  RbcHub hub_;
  Bytes value_;
  std::size_t expected_;
  std::map<std::pair<PartyId, std::uint64_t>, Bytes> delivered_;
};

TEST(Rbc, HonestBroadcastsDeliverEverywhereUnderEveryScheduler) {
  for (const auto sched :
       {SchedulerKind::kFifo, SchedulerKind::kLifo, SchedulerKind::kRandom}) {
    const std::size_t n = 4, t = 1;
    AsyncEngine e(n, t, {}, sched, 11);
    for (PartyId p = 0; p < n; ++p) {
      e.set_process(p, std::make_unique<RbcHost>(
                           p, n, t, Bytes{static_cast<std::uint8_t>(p)}, n));
    }
    e.run();
    for (PartyId p = 0; p < n; ++p) {
      auto& host = dynamic_cast<RbcHost&>(e.process(p));
      for (PartyId b = 0; b < n; ++b) {
        ASSERT_TRUE(host.delivered_.contains({b, 0}));
        EXPECT_EQ(host.delivered_.at({b, 0}), Bytes{static_cast<std::uint8_t>(b)});
      }
    }
  }
}

TEST(Rbc, SilentBroadcasterDeliversNothingButOthersComplete) {
  const std::size_t n = 4, t = 1;
  AsyncEngine e(n, t, {3}, SchedulerKind::kRandom, 5);
  for (PartyId p = 0; p < n; ++p) {
    // Expect only the three honest broadcasts.
    e.set_process(p, std::make_unique<RbcHost>(
                         p, n, t, Bytes{static_cast<std::uint8_t>(p)}, 3));
  }
  e.run();
  for (PartyId p = 0; p < n; ++p) {
    if (e.is_corrupt(p)) continue;
    auto& host = dynamic_cast<RbcHost&>(e.process(p));
    EXPECT_FALSE(host.delivered_.contains({3, 0}));
  }
}

/// Equivocating broadcaster: sends INIT(A) to half the parties, INIT(B) to
/// the rest, then echoes both sides to keep the confusion alive.
class EquivocatingBroadcaster final : public AsyncAdversary {
 public:
  void step(AsyncView& view) override {
    if (sent_) return;
    sent_ = true;
    const auto n = view.n();
    for (PartyId p = 0; p < n; ++p) {
      ByteWriter w;
      w.u8(kRbcInit);
      w.varint(0);
      w.blob(p < n / 2 ? Bytes{0xAA} : Bytes{0xBB});
      view.send(0, p, std::move(w).take());
    }
    // Echo both values toward their respective camps.
    for (PartyId p = 0; p < n; ++p) {
      ByteWriter w;
      w.u8(kRbcEcho);
      w.varint(0);
      w.varint(0);  // broadcaster = 0
      w.blob(p < n / 2 ? Bytes{0xAA} : Bytes{0xBB});
      view.send(0, p, std::move(w).take());
    }
  }
  bool sent_ = false;
};

TEST(Rbc, EquivocatingBroadcasterNeverSplitsDeliveries) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t n = 7, t = 2;
    AsyncEngine e(n, t, {0}, SchedulerKind::kRandom, seed);
    for (PartyId p = 0; p < n; ++p) {
      // Expect the 6 honest broadcasts; broadcaster 0's instance may or may
      // not deliver.
      e.set_process(p, std::make_unique<RbcHost>(
                           p, n, t, Bytes{static_cast<std::uint8_t>(p)},
                           n - 1));
    }
    e.set_adversary(std::make_unique<EquivocatingBroadcaster>());
    e.run();
    // Consistency: every honest party that delivered (0, 0) has the same
    // payload.
    const Bytes* seen = nullptr;
    Bytes value;
    for (PartyId p = 0; p < n; ++p) {
      if (e.is_corrupt(p)) continue;
      auto& host = dynamic_cast<RbcHost&>(e.process(p));
      const auto it = host.delivered_.find({0, 0});
      if (it == host.delivered_.end()) continue;
      if (seen != nullptr) {
        EXPECT_EQ(it->second, value) << "seed " << seed;
      } else {
        value = it->second;
        seen = &value;
      }
    }
  }
}

TEST(Rbc, JunkAndDuplicateVotesAreIgnored) {
  RbcHub hub(0, 4, 1);
  Mailbox out(0, 4);
  // Garbage inputs don't crash and deliver nothing.
  EXPECT_TRUE(hub.on_message(1, Bytes{}, out).empty());
  EXPECT_TRUE(hub.on_message(1, Bytes{0xFF, 1, 2}, out).empty());
  // A party voting READY twice for the same payload counts once: 3 distinct
  // READY votes are needed (2t + 1 = 3).
  ByteWriter w;
  w.u8(kRbcReady);
  w.varint(0);
  w.varint(2);
  w.blob(Bytes{7});
  const Bytes ready = std::move(w).take();
  EXPECT_TRUE(hub.on_message(1, ready, out).empty());
  EXPECT_TRUE(hub.on_message(1, ready, out).empty());  // duplicate
  EXPECT_TRUE(hub.on_message(2, ready, out).empty());
  const auto deliveries = hub.on_message(3, ready, out);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].broadcaster, 2u);
  EXPECT_EQ(deliveries[0].payload, Bytes{7});
}

TEST(Rbc, TagCapDropsSpam) {
  RbcHub hub(0, 4, 1);
  hub.set_max_tag(3);
  Mailbox out(0, 4);
  ByteWriter w;
  w.u8(kRbcInit);
  w.varint(1000);  // beyond the cap
  w.blob(Bytes{1});
  EXPECT_TRUE(hub.on_message(1, std::move(w).take(), out).empty());
  EXPECT_TRUE(out.items().empty());  // no echo for dropped tags
}

TEST(Rbc, RejectsBadParameters) {
  EXPECT_THROW(RbcHub(0, 3, 1), std::invalid_argument);
  EXPECT_THROW(RbcHub(4, 4, 1), std::invalid_argument);
}

TEST(RbcBytesLess, OrdersLikeStdLess) {
  // Empty, prefixes of each other, and bytes above 0x7F (unsigned order).
  std::vector<Bytes> values = {{}, {0}, {0, 0}, {1}, {0x7F}, {0x80}, {0xFF},
                               {0xFF, 0}, {1, 2}, {1, 2, 3}, {1, 2, 4}};
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Bytes b(rng.index(5));
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.index(256));
    values.push_back(std::move(b));
  }
  const BytesLess less;
  for (const Bytes& a : values) {
    for (const Bytes& b : values) {
      EXPECT_EQ(less(a, b), std::less<Bytes>{}(a, b));
    }
  }
}

}  // namespace
}  // namespace treeaa::async
