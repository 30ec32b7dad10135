// The parallel engine's determinism contract at the engine level: traces,
// stats, and received bytes are byte-identical at any EngineOptions::threads
// value (also when whole lanes stage nothing), a throwing party surfaces the
// same exception as in the serial engine, and broadcast-shared payloads
// never alias through a corrupting link layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/strategies.h"
#include "sim/trace.h"

namespace treeaa::sim {
namespace {

/// Broadcasts (round, self, inbox size of last round) every round and
/// remembers every byte it receives — enough state flow that any
/// cross-thread ordering slip would change the transcript.
class ChattyProcess final : public Process {
 public:
  explicit ChattyProcess(PartyId self) : self_(self) {}

  void on_round_begin(Round r, Mailer& out) override {
    out.broadcast(Bytes{static_cast<std::uint8_t>(r),
                        static_cast<std::uint8_t>(self_),
                        static_cast<std::uint8_t>(last_inbox_)});
    if (self_ == 0) out.send(1, Bytes{0xEE});  // some unicast traffic too
  }
  void on_round_end(Round, std::span<const Envelope> inbox) override {
    last_inbox_ = inbox.size();
    for (const Envelope& e : inbox) {
      received_.push_back({e.from, e.payload.bytes()});
    }
  }

  std::vector<std::pair<PartyId, Bytes>> received_;

 private:
  PartyId self_;
  std::size_t last_inbox_ = 0;
};

struct Transcript {
  std::string trace;
  std::vector<std::vector<std::pair<PartyId, Bytes>>> received;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

Transcript run_chatty(std::size_t threads, std::size_t n, Round rounds,
                      bool with_adversary) {
  Engine engine(n, 2, EngineOptions{threads});
  std::vector<ChattyProcess*> procs;
  for (PartyId p = 0; p < n; ++p) {
    auto proc = std::make_unique<ChattyProcess>(p);
    procs.push_back(proc.get());
    engine.set_process(p, std::move(proc));
  }
  if (with_adversary) {
    engine.set_adversary(std::make_unique<FuzzAdversary>(
        std::vector<PartyId>{2, static_cast<PartyId>(n - 1)}, /*seed=*/7,
        /*min=*/4, /*max=*/12));
  }
  RecordingTracer tracer(/*payloads=*/true);
  engine.set_tracer(&tracer);
  engine.run(rounds);

  Transcript t;
  t.trace = tracer.text();
  for (const ChattyProcess* proc : procs) t.received.push_back(proc->received_);
  t.messages = engine.stats().total_messages();
  t.bytes = engine.stats().total_bytes();
  return t;
}

// n = 64 puts more than 4096 envelopes into a single round, so every lane's
// staging vector grows well past a small fixed buffer.
TEST(EngineThreads, TranscriptIdenticalAcrossThreadCounts) {
  for (const std::size_t n : {9u, 64u}) {
    for (const bool adversarial : {false, true}) {
      const Transcript serial = run_chatty(1, n, 6, adversarial);
      EXPECT_GT(serial.messages, 0u);
      for (const std::size_t threads : {2u, 3u, 8u}) {
        const Transcript parallel = run_chatty(threads, n, 6, adversarial);
        EXPECT_EQ(parallel.trace, serial.trace)
            << "n=" << n << " threads=" << threads
            << " adversarial=" << adversarial;
        EXPECT_EQ(parallel.received, serial.received);
        EXPECT_EQ(parallel.messages, serial.messages);
        EXPECT_EQ(parallel.bytes, serial.bytes);
      }
    }
  }
}

TEST(EngineThreads, ThreadsClampToPartyCount) {
  const Engine engine(5, 1, EngineOptions{64});
  EXPECT_LE(engine.threads(), 5u);
}

TEST(EngineThreads, PoolIsLeasedOnlyForMoreThanOneLane) {
  const Engine serial(9, 2, EngineOptions{1});
  EXPECT_EQ(serial.pool(), nullptr);
  const Engine parallel(9, 2, EngineOptions{4});
  ASSERT_NE(parallel.pool(), nullptr);
  EXPECT_EQ(parallel.pool()->lanes(), 4u);
  EXPECT_EQ(parallel.threads(), 4u);
}

// Per-round traffic accounting happens while the staging is merged, so the
// per-round split (not only the totals) must match the serial engine.
TEST(EngineThreads, PerRoundStatsIdenticalAcrossThreadCounts) {
  const auto per_round = [](std::size_t threads) {
    Engine engine(11, 2, EngineOptions{threads});
    for (PartyId p = 0; p < 11; ++p) {
      engine.set_process(p, std::make_unique<ChattyProcess>(p));
    }
    engine.set_adversary(std::make_unique<FuzzAdversary>(
        std::vector<PartyId>{3, 10}, /*seed=*/11, /*min=*/2, /*max=*/9));
    engine.run(5);
    std::vector<std::vector<std::uint64_t>> rows;
    for (const RoundTraffic& rt : engine.stats().per_round) {
      rows.push_back({rt.honest_messages, rt.honest_bytes,
                      rt.adversary_messages, rt.adversary_bytes});
    }
    return rows;
  };
  const auto serial = per_round(1);
  ASSERT_EQ(serial.size(), 5u);
  for (const std::size_t threads : {2u, 4u, 11u}) {
    EXPECT_EQ(per_round(threads), serial) << "threads=" << threads;
  }
}

/// Only some parties talk, each a round-dependent number of unicasts, so
/// whole lanes stage nothing in some rounds and a lot in others.
class SparseProcess final : public Process {
 public:
  SparseProcess(PartyId self, std::size_t n) : self_(self), n_(n) {}

  void on_round_begin(Round r, Mailer& out) override {
    if ((self_ + r) % 4 != 0) return;
    for (std::size_t k = 0; k < self_ + r; ++k) {
      const auto to = static_cast<PartyId>((self_ + k) % n_);
      out.send(to, Bytes{static_cast<std::uint8_t>(r),
                         static_cast<std::uint8_t>(k)});
    }
  }
  void on_round_end(Round, std::span<const Envelope> inbox) override {
    for (const Envelope& e : inbox) received_.push_back({e.from, e.payload.bytes()});
  }

  std::vector<std::pair<PartyId, Bytes>> received_;

 private:
  PartyId self_;
  std::size_t n_;
};

TEST(EngineThreads, StagingMergeKeepsOrderWhenLanesStayQuiet) {
  const auto run_sparse = [](std::size_t threads) {
    constexpr std::size_t kN = 13;
    Engine engine(kN, 2, EngineOptions{threads});
    std::vector<SparseProcess*> procs;
    for (PartyId p = 0; p < kN; ++p) {
      auto proc = std::make_unique<SparseProcess>(p, kN);
      procs.push_back(proc.get());
      engine.set_process(p, std::move(proc));
    }
    RecordingTracer tracer(/*payloads=*/true);
    engine.set_tracer(&tracer);
    engine.run(8);
    std::vector<std::vector<std::pair<PartyId, Bytes>>> received;
    for (const SparseProcess* proc : procs) received.push_back(proc->received_);
    return std::make_pair(tracer.text(), received);
  };
  const auto serial = run_sparse(1);
  EXPECT_NE(serial.first.find("send"), std::string::npos);
  for (const std::size_t threads : {2u, 3u, 6u, 13u}) {
    const auto parallel = run_sparse(threads);
    EXPECT_EQ(parallel.first, serial.first) << "threads=" << threads;
    EXPECT_EQ(parallel.second, serial.second) << "threads=" << threads;
  }
}

/// Throws from its send step in `round`.
class ThrowingProcess final : public Process {
 public:
  ThrowingProcess(PartyId self, Round round) : self_(self), round_(round) {}

  void on_round_begin(Round r, Mailer& out) override {
    if (r == round_) {
      throw std::runtime_error("party " + std::to_string(self_));
    }
    out.broadcast(Bytes{static_cast<std::uint8_t>(self_)});
  }
  void on_round_end(Round, std::span<const Envelope>) override {}

 private:
  PartyId self_;
  Round round_;
};

// A party that throws while sending surfaces from Engine::run at every
// thread count, and when several throw, the lowest party's exception wins
// — the one the serial engine would hit first.
TEST(EngineThreads, SendPhaseExceptionSurfacesLowestPartyAtEveryThreadCount) {
  for (const std::size_t threads : {1u, 2u, 3u, 9u}) {
    Engine engine(9, 2, EngineOptions{threads});
    for (PartyId p = 0; p < 9; ++p) {
      const bool throws = p == 4 || p == 7;
      engine.set_process(p, std::make_unique<ThrowingProcess>(
                                p, throws ? Round{2} : Round{0}));
    }
    try {
      engine.run(3);
      FAIL() << "expected an exception, threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "party 4") << "threads=" << threads;
    }
  }
}

/// Flips the first byte of every message addressed to party 0 — through
/// the COW handle, exactly like the net fault layer's corrupt-link path.
class CorruptForPartyZero final : public LinkLayer {
 public:
  std::vector<Envelope> deliver(Round, std::vector<Envelope> queued) override {
    for (Envelope& e : queued) {
      if (e.to == 0 && !e.payload.empty()) {
        e.payload.mutable_bytes()[0] ^= 0xFF;
      }
    }
    return queued;
  }
};

// A broadcast's payload is one shared buffer across all n envelopes; a
// corrupt link that rewrites party 0's copy must detach, never alias —
// parties 1..n-1 see pristine bytes, at every thread count.
TEST(EngineThreads, CorruptLinkDetachesSharedBroadcastPayloads) {
  for (const std::size_t threads : {1u, 4u}) {
    Engine engine(6, 1, EngineOptions{threads});
    std::vector<ChattyProcess*> procs;
    for (PartyId p = 0; p < 6; ++p) {
      auto proc = std::make_unique<ChattyProcess>(p);
      procs.push_back(proc.get());
      engine.set_process(p, std::move(proc));
    }
    CorruptForPartyZero link;
    engine.set_link_layer(&link);
    engine.run(1);

    for (PartyId p = 0; p < 6; ++p) {
      ASSERT_FALSE(procs[p]->received_.empty());
      for (const auto& [from, bytes] : procs[p]->received_) {
        if (bytes.size() != 3) continue;  // unicast 0xEE probe
        if (p == 0) {
          EXPECT_EQ(bytes[0], 1 ^ 0xFF)
              << "party 0's copy must carry the corruption";
        } else {
          EXPECT_EQ(bytes[0], 1)
              << "party " << p << " saw party 0's corruption (aliasing!)"
              << " threads=" << threads;
        }
      }
    }
  }
}

}  // namespace
}  // namespace treeaa::sim
