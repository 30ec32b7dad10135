// Omission faults (Fekete's weaker fault class): parties that run the
// protocol correctly but lose a fraction of their outgoing messages. The
// Byzantine-tolerant protocols must shrug this off — an omission-faulty
// party is strictly weaker than a Byzantine one.
#include <gtest/gtest.h>

#include "core/api.h"
#include "core/tree_aa.h"
#include "harness/runner.h"
#include "perf/tree_index.h"
#include "sim/strategies.h"
#include "trees/generators.h"

namespace treeaa::sim {
namespace {

TEST(OmissionFaults, RandomDropFilterIsDeterministicPerSeed) {
  auto f1 = PuppetAdversary::random_drops(0.5, 9);
  auto f2 = PuppetAdversary::random_drops(0.5, 9);
  Envelope e;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(f1(e), f2(e));
  }
  auto none = PuppetAdversary::random_drops(0.0, 1);
  auto all = PuppetAdversary::random_drops(1.0, 1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(none(e));
    EXPECT_FALSE(all(e));
  }
  EXPECT_THROW(PuppetAdversary::random_drops(1.5, 1),
               std::invalid_argument);
}

TEST(OmissionFaults, RealAAToleratesLossySenders) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::size_t n = 10, t = 3;
    realaa::Config cfg;
    cfg.n = n;
    cfg.t = t;
    cfg.eps = 1.0;
    cfg.known_range = 1000.0;
    const auto inputs = harness::spread_real_inputs(n, 0.0, 1000.0);

    std::vector<PuppetAdversary::Puppet> puppets;
    for (const PartyId victim : {7u, 8u, 9u}) {
      puppets.push_back(
          {victim,
           std::make_unique<realaa::RealAAProcess>(cfg, victim,
                                                   inputs[victim]),
           PuppetAdversary::random_drops(0.4, seed * 100 + victim)});
    }
    auto run = harness::run_real_aa(
        cfg, inputs, std::make_unique<PuppetAdversary>(std::move(puppets)));

    // Validity/agreement against the honest (non-lossy) parties' inputs.
    double lo = 1e300, hi = -1e300;
    for (PartyId p = 0; p < 7; ++p) {
      lo = std::min(lo, inputs[p]);
      hi = std::max(hi, inputs[p]);
    }
    for (const double v : run.honest_outputs()) {
      EXPECT_GE(v, lo - 1e-12);
      EXPECT_LE(v, hi + 1e-12);
    }
    EXPECT_LE(run.output_range(), cfg.eps) << "seed " << seed;
  }
}

TEST(OmissionFaults, TreeAAToleratesLossySenders) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const auto tree = make_random_tree(60, rng);
    const perf::TreeIndex index(tree);
    const std::size_t n = 7, t = 2;
    const auto inputs = harness::random_vertex_inputs(tree, n, rng);

    std::vector<PuppetAdversary::Puppet> puppets;
    for (const PartyId victim : {5u, 6u}) {
      puppets.push_back(
          {victim,
           std::make_unique<core::TreeAAProcess>(index, n, t, victim,
                                                 inputs[victim]),
           PuppetAdversary::random_drops(0.3, seed * 7 + victim)});
    }
    const auto run = core::run_tree_aa(
        tree, inputs, t, {},
        std::make_unique<PuppetAdversary>(std::move(puppets)));

    std::vector<VertexId> honest_inputs(inputs.begin(), inputs.begin() + 5);
    const auto check =
        core::check_agreement(tree, honest_inputs, run.honest_outputs());
    EXPECT_TRUE(check.ok()) << "seed " << seed << " max d "
                            << check.max_pairwise_distance;
  }
}

}  // namespace
}  // namespace treeaa::sim
