// Lane identity on full protocol runs: one fixed instance per hot subsystem
// (gradecast batch, RealAA, TreeAA on 1000- and 4096-vertex trees, BlockAA
// on a clique chain, RealAA at n=64) gives the same message count, byte
// count, round count and honest outputs at 1 and 8 requested engine lanes.
// The engine grants one lane per eight parties at most, so the n=7 TreeAA
// and BlockAA instances run serial either way; every subsystem also runs at
// n=64, where all 8 lanes are granted.
//
// Registered with TREEAA_FORCE_WORKERS=4 (tests/sim/CMakeLists.txt), so the
// 8-lane runs fan out over real workers even on a one-CPU host; the n=4096
// test refuses to pass if they would not.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/api.h"
#include "gradecast/gradecast.h"
#include "graphs/block_aa.h"
#include "graphs/block_index.h"
#include "graphs/generators.h"
#include "harness/runner.h"
#include "obs/report.h"
#include "perf/parallel.h"
#include "sim/engine.h"
#include "trees/generators.h"

namespace treeaa {
namespace {

/// Everything a run shows to the outside, with the honest outputs rendered
/// exactly (doubles in hexfloat) so a one-ulp drift is a mismatch.
struct Outcome {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  Round rounds = 0;
  std::string outputs;

  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << o.messages << " msgs, " << o.bytes << " bytes, " << o.rounds
            << " rounds, outputs [" << o.outputs << "]";
}

template <typename Run>
Outcome outcome_of(const Run& run) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const auto& v : run.honest_outputs()) out << v << ' ';
  return {run.traffic.total_messages(), run.traffic.total_bytes(), run.rounds,
          out.str()};
}

/// Hosts a single BatchGradecast per party (every party leads with a
/// one-byte value).
class GradecastHost final : public sim::Process {
 public:
  GradecastHost(PartyId self, std::size_t n, std::size_t t)
      : batch_(self, n, t, Bytes{static_cast<std::uint8_t>(self)}) {}
  void on_round_begin(Round r, sim::Mailer& out) override {
    batch_.on_step_begin(r - 1, out);
  }
  void on_round_end(Round r, std::span<const sim::Envelope> inbox) override {
    batch_.on_step_end(r - 1, inbox);
  }

  gradecast::BatchGradecast batch_;
};

Outcome gradecast_once(std::size_t n, std::size_t t, std::size_t lanes) {
  sim::Engine engine(n, std::max<std::size_t>(t, 1), sim::EngineOptions{lanes});
  std::vector<GradecastHost*> hosts;
  for (PartyId p = 0; p < n; ++p) {
    auto host = std::make_unique<GradecastHost>(p, n, t);
    hosts.push_back(host.get());
    engine.set_process(p, std::move(host));
  }
  engine.run(gradecast::kRounds);
  std::ostringstream out;
  for (const GradecastHost* host : hosts) {
    for (const gradecast::GradedValue& g : host->batch_.results()) {
      out << g.grade << ':';
      if (g.value.has_value()) {
        for (const std::uint8_t b : *g.value) out << int{b} << '.';
      }
      out << ' ';
    }
  }
  return {engine.stats().total_messages(), engine.stats().total_bytes(),
          engine.rounds_elapsed(), out.str()};
}

Outcome real_aa_once(std::size_t n, std::size_t t, std::size_t lanes) {
  realaa::Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.eps = 1.0;
  cfg.known_range = 1e4;
  const auto inputs = harness::spread_real_inputs(n, 0.0, 1e4);
  return outcome_of(harness::run_real_aa(cfg, inputs, nullptr, nullptr, lanes));
}

/// TreeAA with n parties, t = (n - 1) / 3, on the random tree of `size`
/// vertices seeded 0xBEEF + size. `hooks` may attach a report.
Outcome tree_aa_once(std::size_t size, std::size_t n, std::size_t lanes,
                     const obs::Hooks* hooks = nullptr) {
  Rng rng(0xBEEF + size);
  const auto tree = make_random_tree(size, rng);
  const auto inputs = harness::spread_vertex_inputs(tree, n);
  return outcome_of(core::run_tree_aa(tree, inputs, (n - 1) / 3, {}, nullptr,
                                      hooks, sim::EngineOptions{lanes}));
}

/// BlockAA with n parties, t = (n - 1) / 3, on a ~600-vertex clique chain,
/// the parties split between the two ends of a diameter.
Outcome block_aa_once(std::size_t n, std::size_t lanes) {
  const graphs::BlockIndex index(graphs::make_clique_chain(600));
  const auto [end_a, end_b] = index.diameter_endpoints();
  std::vector<VertexId> inputs;
  for (std::size_t p = 0; p < n; ++p) {
    inputs.push_back(p % 2 == 0 ? end_a : end_b);
  }
  return outcome_of(graphs::run_block_aa(index, inputs, (n - 1) / 3, {},
                                         nullptr, nullptr,
                                         sim::EngineOptions{lanes}));
}

TEST(LaneIdentity, OneAndEightLanesAgreeOnEveryScenario) {
  struct Scenario {
    std::string name;
    std::size_t parties;
    std::function<Outcome(std::size_t)> run;
  };
  const std::vector<Scenario> scenarios{
      {"gradecast_n32", 32, [](std::size_t k) { return gradecast_once(32, 10, k); }},
      {"gradecast_n64", 64, [](std::size_t k) { return gradecast_once(64, 21, k); }},
      {"realaa_n16", 16, [](std::size_t k) { return real_aa_once(16, 5, k); }},
      {"tree_aa_1000", 7, [](std::size_t k) { return tree_aa_once(1000, 7, k); }},
      {"tree_aa_1000_n64", 64, [](std::size_t k) { return tree_aa_once(1000, 64, k); }},
      {"tree_aa_4096", 7, [](std::size_t k) { return tree_aa_once(4096, 7, k); }},
      {"block_aa_600", 7, [](std::size_t k) { return block_aa_once(7, k); }},
      {"block_aa_600_n64", 64, [](std::size_t k) { return block_aa_once(64, k); }},
      {"realaa_n64", 64, [](std::size_t k) { return real_aa_once(64, 21, k); }},
  };
  for (const Scenario& s : scenarios) {
    if (s.parties >= 64) {
      EXPECT_EQ(sim::Engine::lanes_for(s.parties, 8), 8u) << s.name;
    }
    const Outcome serial = s.run(1);
    EXPECT_GT(serial.messages, 0u) << s.name;
    EXPECT_EQ(serial, s.run(8)) << s.name;
  }
}

TEST(LaneIdentity, Tree4096RunsOnRealWorkers) {
  // Without real workers the comparison below would pit the serial engine
  // against itself and prove nothing about the lane handoff.
  ASSERT_GT(perf::WorkerPool::default_workers(8), 1u)
      << "8 lanes resolve to one worker: set TREEAA_FORCE_WORKERS";
  // Seven parties run serial at any request; the comparison stays as the
  // small-n case.
  EXPECT_EQ(tree_aa_once(4096, 7, 1), tree_aa_once(4096, 7, 8));
  // 64 parties are granted all 8 lanes, on more than one worker.
  obs::RunReport report;
  obs::Hooks hooks;
  hooks.report = &report;
  EXPECT_EQ(tree_aa_once(4096, 64, 1), tree_aa_once(4096, 64, 8, &hooks));
  EXPECT_EQ(report.timing.gauge("pool_lanes").value(), 8.0);
  EXPECT_GT(report.timing.gauge("pool_workers").value(), 1.0);
}

}  // namespace
}  // namespace treeaa
