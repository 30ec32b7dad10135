// The parallel engine's determinism contract at the engine level: traces,
// stats, and received bytes are byte-identical at any EngineOptions::threads
// value (also when whole lanes stage nothing or puppets run on the lanes), a
// throwing party surfaces the same exception as in the serial engine, and
// broadcast-shared payloads never alias through a corrupting link layer.
//
// The engine grants at most one lane per eight parties
// (Engine::lanes_for), so every contract keeps its small-n input, which
// now runs serial at any thread count, and adds one at an n where every
// requested lane count is granted, asserting the grant.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "harness/runner.h"
#include "obs/report.h"
#include "realaa/real_aa.h"
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
  std::size_t lanes = 0;
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
  t.lanes = engine.threads();
  return t;
}

// n = 64 puts more than 4096 envelopes into a single round, so every lane's
// staging vector grows well past a small fixed buffer; it is also wide
// enough for every requested lane count to be granted.
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
        if (n == 64) {
          EXPECT_EQ(parallel.lanes, threads);
        }
      }
    }
  }
}

TEST(EngineThreads, ThreadsClampToPartyCount) {
  const Engine engine(5, 1, EngineOptions{64});
  EXPECT_LE(engine.threads(), 5u);
}

// The lane rule, min(threads, max(1, n / 8)) with 0 = one per hardware
// thread: a run takes a second lane at 16 parties and a fourth at 32.
TEST(EngineThreads, LanesFollowPartyCount) {
  struct Row {
    std::size_t n, threads, lanes;
  };
  const Row rows[] = {
      {1, 1, 1},   {1, 8, 1},   {7, 4, 1},   {9, 4, 1},   {13, 13, 1},
      {15, 2, 1},  {16, 1, 1},  {16, 2, 2},  {16, 4, 2},  {23, 4, 2},
      {24, 4, 3},  {31, 4, 3},  {32, 4, 4},  {32, 8, 4},  {64, 4, 4},
      {64, 8, 8},  {72, 9, 9},  {104, 13, 13}, {1000, 8, 8},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(Engine::lanes_for(row.n, row.threads), row.lanes)
        << "n=" << row.n << " threads=" << row.threads;
    EXPECT_EQ(Engine(row.n, 0, EngineOptions{row.threads}).threads(),
              row.lanes)
        << "n=" << row.n << " threads=" << row.threads;
  }
  const std::size_t hardware = perf::WorkerPool::resolve_lanes(0);
  EXPECT_EQ(Engine::lanes_for(8 * hardware, 0), hardware);
  EXPECT_EQ(Engine::lanes_for(7, 0), 1u);
}

TEST(EngineThreads, PoolIsLeasedOnlyForMoreThanOneLane) {
  const Engine serial(32, 2, EngineOptions{1});
  EXPECT_EQ(serial.pool(), nullptr);
  // Nine parties are too few for a second lane, whatever was requested.
  const Engine small(9, 2, EngineOptions{4});
  EXPECT_EQ(small.pool(), nullptr);
  EXPECT_EQ(small.threads(), 1u);
  const Engine parallel(32, 2, EngineOptions{4});
  ASSERT_NE(parallel.pool(), nullptr);
  EXPECT_EQ(parallel.pool()->lanes(), 4u);
  EXPECT_EQ(parallel.threads(), 4u);
}

// Per-round traffic accounting happens while the staging is merged, so the
// per-round split (not only the totals) must match the serial engine.
// n = 88 grants all 11 requested lanes.
TEST(EngineThreads, PerRoundStatsIdenticalAcrossThreadCounts) {
  const auto per_round = [](std::size_t n, std::size_t threads) {
    Engine engine(n, 2, EngineOptions{threads});
    for (PartyId p = 0; p < n; ++p) {
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
    if (n == 88) {
      EXPECT_EQ(engine.threads(), threads);
    }
    return rows;
  };
  for (const std::size_t n : {11u, 88u}) {
    const auto serial = per_round(n, 1);
    ASSERT_EQ(serial.size(), 5u);
    for (const std::size_t threads : {2u, 4u, 11u}) {
      EXPECT_EQ(per_round(n, threads), serial)
          << "n=" << n << " threads=" << threads;
    }
  }
}

/// Only some blocks of `block` consecutive parties talk, each party a
/// round-dependent number of unicasts, so whole lanes (one block each at
/// n / block lanes) stage nothing in some rounds and a lot in others.
class SparseProcess final : public Process {
 public:
  SparseProcess(PartyId self, std::size_t n, std::size_t block)
      : self_(self), n_(n), block_(block) {}

  void on_round_begin(Round r, Mailer& out) override {
    if ((self_ / block_ + r) % 4 != 0) return;
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
  std::size_t block_;
};

// 13 blocks of one party at n = 13, and of eight at n = 104, where all 13
// requested lanes are granted and each lane owns one block.
TEST(EngineThreads, StagingMergeKeepsOrderWhenLanesStayQuiet) {
  const auto run_sparse = [](std::size_t n, std::size_t threads) {
    Engine engine(n, 2, EngineOptions{threads});
    std::vector<SparseProcess*> procs;
    for (PartyId p = 0; p < n; ++p) {
      auto proc = std::make_unique<SparseProcess>(p, n, n / 13);
      procs.push_back(proc.get());
      engine.set_process(p, std::move(proc));
    }
    RecordingTracer tracer(/*payloads=*/true);
    engine.set_tracer(&tracer);
    engine.run(8);
    if (n == 104) {
      EXPECT_EQ(engine.threads(), threads);
    }
    std::vector<std::vector<std::pair<PartyId, Bytes>>> received;
    for (const SparseProcess* proc : procs) received.push_back(proc->received_);
    return std::make_pair(tracer.text(), received);
  };
  for (const std::size_t n : {13u, 104u}) {
    const auto serial = run_sparse(n, 1);
    EXPECT_NE(serial.first.find("send"), std::string::npos);
    for (const std::size_t threads : {2u, 3u, 6u, 13u}) {
      const auto parallel = run_sparse(n, threads);
      EXPECT_EQ(parallel.first, serial.first)
          << "n=" << n << " threads=" << threads;
      EXPECT_EQ(parallel.second, serial.second)
          << "n=" << n << " threads=" << threads;
    }
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
// — the one the serial engine would hit first. At n = 72 all nine
// requested lanes are granted, and the throwers (parties 32 and 56) sit on
// different lanes at 2, 3 and 9 lanes.
TEST(EngineThreads, SendPhaseExceptionSurfacesLowestPartyAtEveryThreadCount) {
  for (const std::size_t n : {9u, 72u}) {
    const std::size_t block = n / 9;
    const auto low = static_cast<PartyId>(4 * block);
    const auto high = static_cast<PartyId>(7 * block);
    for (const std::size_t threads : {1u, 2u, 3u, 9u}) {
      Engine engine(n, 2, EngineOptions{threads});
      if (n == 72) {
        EXPECT_EQ(engine.threads(), threads);
      }
      for (PartyId p = 0; p < n; ++p) {
        const bool throws = p == low || p == high;
        engine.set_process(p, std::make_unique<ThrowingProcess>(
                                  p, throws ? Round{2} : Round{0}));
      }
      try {
        engine.run(3);
        FAIL() << "expected an exception, n=" << n << " threads=" << threads;
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(e.what(), "party " + std::to_string(low))
            << "n=" << n << " threads=" << threads;
      }
    }
  }
}

struct PuppetRun {
  std::string report;
  double lanes = 0;  // the report's pool_lanes gauge; 0 without a pool
  std::vector<std::optional<double>> outputs;
  std::vector<std::vector<double>> histories;
  std::vector<std::vector<std::uint64_t>> per_round;
};

/// RealAA at n = 64, t = 21 against t extreme-input RealAA puppets — the
/// e2e realaa_wide shape. With `drops`, every puppet shares one random-drop
/// filter, so the filter's RNG draw order is part of what must not move.
PuppetRun run_puppets(std::size_t threads, bool drops) {
  realaa::Config cfg;
  cfg.n = 64;
  cfg.t = 21;
  cfg.eps = 1.0;
  cfg.known_range = 4.0;
  Rng rng(5);
  const auto inputs = harness::random_real_inputs(cfg.n, 0.0, 4.0, rng);
  const auto victims = random_parties(cfg.n, cfg.t, rng);
  std::unique_ptr<Adversary> adversary;
  if (drops) {
    const auto filter = PuppetAdversary::random_drops(0.3, /*seed=*/17);
    std::vector<PuppetAdversary::Puppet> puppets;
    for (std::size_t i = 0; i < victims.size(); ++i) {
      puppets.push_back(PuppetAdversary::Puppet{
          victims[i],
          std::make_unique<realaa::RealAAProcess>(cfg, victims[i],
                                                  i % 2 == 0 ? -4.0 : 8.0),
          filter});
    }
    adversary = std::make_unique<PuppetAdversary>(std::move(puppets));
  } else {
    adversary = harness::make_extreme_input_puppets(cfg, victims, -4.0, 8.0);
  }
  obs::RunReport report;
  obs::Hooks hooks;
  hooks.report = &report;
  const harness::RealRun run = harness::run_real_aa(
      cfg, inputs, std::move(adversary), &hooks, threads);
  PuppetRun out;
  out.report = report.to_json(/*include_timings=*/false);
  out.lanes = report.timing.gauge("pool_lanes").value();
  out.outputs = run.outputs;
  out.histories = run.histories;
  for (const RoundTraffic& rt : run.traffic.per_round) {
    out.per_round.push_back({rt.honest_messages, rt.honest_bytes,
                             rt.adversary_messages, rt.adversary_bytes});
  }
  return out;
}

// Puppets are honest RealAA code driven by the adversary; however their
// work is spread over the engine's lanes, outputs, per-round traffic and
// report bytes match the serial engine.
TEST(EngineThreads, PuppetRunsIdenticalAcrossThreadCounts) {
  for (const bool drops : {false, true}) {
    const PuppetRun serial = run_puppets(1, drops);
    ASSERT_FALSE(serial.per_round.empty());
    EXPECT_GT(serial.per_round.front()[2], 0u) << "puppets must inject";
    for (const std::size_t threads : {2u, 3u, 8u}) {
      const PuppetRun parallel = run_puppets(threads, drops);
      EXPECT_EQ(parallel.report, serial.report)
          << "threads=" << threads << " drops=" << drops;
      EXPECT_EQ(parallel.outputs, serial.outputs);
      EXPECT_EQ(parallel.histories, serial.histories);
      EXPECT_EQ(parallel.per_round, serial.per_round);
      EXPECT_EQ(parallel.lanes, static_cast<double>(threads));
    }
  }
}

/// Throws from one step of one round; otherwise broadcasts its party id.
class ThrowingPuppet final : public Process {
 public:
  enum class Step { kNone, kBegin, kEnd };
  struct When {
    Step step = Step::kNone;
    Round round = 0;
  };

  ThrowingPuppet(PartyId self, When when) : self_(self), when_(when) {}

  void on_round_begin(Round r, Mailer& out) override {
    if (when_.step == Step::kBegin && r == when_.round) fail();
    out.broadcast(Bytes{static_cast<std::uint8_t>(self_)});
  }
  void on_round_end(Round r, std::span<const Envelope>) override {
    if (when_.step == Step::kEnd && r == when_.round) fail();
  }

 private:
  [[noreturn]] void fail() const {
    throw std::runtime_error("puppet " + std::to_string(self_));
  }

  PartyId self_;
  When when_;
};

// Puppet steps run on the engine's lanes, yet a throwing puppet surfaces
// from Engine::run at every thread count, and when two throw, the lowest
// puppet's exception wins — also when the higher one throws in an earlier
// step of the same round or both sit on different lanes of one dispatch.
// Nine parties run serial; at 72 all nine requested lanes are granted.
TEST(EngineThreads, PuppetExceptionSurfacesLowestPuppetAtEveryThreadCount) {
  using Step = ThrowingPuppet::Step;
  using When = ThrowingPuppet::When;
  const std::vector<std::pair<When, When>> cases = {
      {{Step::kBegin, 2}, {Step::kEnd, 2}},
      {{Step::kEnd, 2}, {Step::kBegin, 3}},
      {{Step::kBegin, 2}, {Step::kBegin, 2}},
      {{Step::kEnd, 2}, {Step::kEnd, 2}},
  };
  // Puppets 1 and 3 throw; the puppets are chunked over the lanes by
  // puppet index, so the two land on different lanes at 2, 3 and 9 lanes.
  for (const std::size_t n : {9u, 72u}) {
    const std::size_t block = n / 9;
    std::vector<PartyId> victims;
    for (const std::size_t v : {1u, 2u, 4u, 6u, 7u}) {
      victims.push_back(static_cast<PartyId>(v * block));
    }
    const std::string lowest = "puppet " + std::to_string(victims[1]);
    for (const auto& [low, high] : cases) {
      for (const std::size_t threads : {1u, 2u, 3u, 9u}) {
        Engine engine(n, 5, EngineOptions{threads});
        if (n == 72) {
          EXPECT_EQ(engine.threads(), threads);
        }
        for (PartyId p = 0; p < n; ++p) {
          engine.set_process(p, std::make_unique<ChattyProcess>(p));
        }
        std::vector<PuppetAdversary::Puppet> puppets;
        for (std::size_t i = 0; i < victims.size(); ++i) {
          const When when = i == 1 ? low : i == 3 ? high : When{};
          puppets.push_back(
              {victims[i], std::make_unique<ThrowingPuppet>(victims[i], when),
               nullptr});
        }
        engine.set_adversary(
            std::make_unique<PuppetAdversary>(std::move(puppets)));
        try {
          engine.run(4);
          FAIL() << "expected an exception, n=" << n
                 << " threads=" << threads;
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(e.what(), lowest) << "n=" << n << " threads=" << threads;
        }
      }
    }
  }
}

/// Flips the first byte of every message addressed to party 0 — through
/// the COW handle, exactly like the net fault layer's corrupt-link path.
/// Records whether `sender`'s message to party 0 arrived shared.
class CorruptForPartyZero final : public LinkLayer {
 public:
  explicit CorruptForPartyZero(PartyId sender) : sender_(sender) {}

  std::vector<Envelope> deliver(Round, std::vector<Envelope> queued) override {
    for (Envelope& e : queued) {
      if (e.to == 0 && !e.payload.empty()) {
        if (e.from == sender_) sender_payload_shared = e.payload.shared();
        e.payload.mutable_bytes()[0] ^= 0xFF;
      }
    }
    return queued;
  }

  bool sender_payload_shared = false;

 private:
  PartyId sender_;
};

/// Corrupts `party` and broadcasts a ChattyProcess-shaped round-1 message
/// from it through RoundView::broadcast.
class BroadcastingAdversary final : public Adversary {
 public:
  explicit BroadcastingAdversary(PartyId party) : party_(party) {}
  void init(RoundView& view) override { view.corrupt(party_); }
  void act(RoundView& view) override {
    view.broadcast(party_, Bytes{1, static_cast<std::uint8_t>(party_), 0xAD});
  }

 private:
  PartyId party_;
};

// A broadcast's payload is one shared buffer across all n envelopes —
// whether an honest Mailer or the adversary's RoundView sent it; a corrupt
// link that rewrites party 0's copy must detach, never alias — the other
// recipients see pristine bytes, at every thread count (six parties run
// serial; 32 are granted all four lanes).
TEST(EngineThreads, CorruptLinkDetachesSharedBroadcastPayloads) {
  constexpr PartyId kCorrupt = 5;
  for (const std::size_t n : {6u, 32u}) {
    for (const bool adversarial : {false, true}) {
      for (const std::size_t threads : {1u, 4u}) {
        Engine engine(n, 1, EngineOptions{threads});
        if (n == 32) {
          EXPECT_EQ(engine.threads(), threads);
        }
        std::vector<ChattyProcess*> procs;
        for (PartyId p = 0; p < n; ++p) {
          auto proc = std::make_unique<ChattyProcess>(p);
          procs.push_back(proc.get());
          engine.set_process(p, std::move(proc));
        }
        if (adversarial) {
          engine.set_adversary(
              std::make_unique<BroadcastingAdversary>(kCorrupt));
        }
        CorruptForPartyZero link(kCorrupt);
        engine.set_link_layer(&link);
        engine.run(1);
        if (adversarial) {
          EXPECT_TRUE(link.sender_payload_shared)
              << "RoundView::broadcast must intern its payload once";
        }

        for (PartyId p = 0; p < n; ++p) {
          if (engine.is_corrupt(p)) continue;
          ASSERT_FALSE(procs[p]->received_.empty());
          std::size_t from_corrupt = 0;
          for (const auto& [from, bytes] : procs[p]->received_) {
            if (bytes.size() != 3) continue;  // unicast 0xEE probe
            if (from == kCorrupt) ++from_corrupt;
            if (p == 0) {
              EXPECT_EQ(bytes[0], 1 ^ 0xFF)
                  << "party 0's copy must carry the corruption";
            } else {
              EXPECT_EQ(bytes[0], 1)
                  << "party " << p << " saw party 0's corruption (aliasing!)"
                  << " n=" << n << " threads=" << threads
                  << " adversarial=" << adversarial;
            }
          }
          EXPECT_EQ(from_corrupt, 1u) << "party " << p;
        }
      }
    }
  }
}

}  // namespace
}  // namespace treeaa::sim
