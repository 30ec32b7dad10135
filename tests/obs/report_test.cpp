// RunReport: schema stability, byte-determinism of the canonical form, the
// zero-behavior-change guarantee of the probed engine path, and the
// protocol-level probe series produced by the harness runners.
#include "obs/report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/json_value.h"
#include "core/api.h"
#include "harness/runner.h"
#include "obs/json.h"
#include "obs/probe.h"
#include "sim/strategies.h"
#include "trees/generators.h"

namespace treeaa::obs {
namespace {

TEST(RunReport, SchemaLayoutIsStable) {
  RunReport r;
  r.protocol = "demo";
  r.n = 4;
  r.t = 1;
  r.rounds = 2;
  r.add_param("eps", 0.5);
  r.add_param("engine", "bdh");
  r.corrupt = {3};
  r.honest_messages = 10;
  r.honest_bytes = 20;
  r.adversary_messages = 1;
  r.adversary_bytes = 2;
  RoundSample s;
  s.round = 1;
  s.honest_messages = 10;
  s.honest_bytes = 20;
  s.adversary_messages = 1;
  s.adversary_bytes = 2;
  s.corrupt_total = 1;
  s.value_diameter = 2.0;
  r.per_round.push_back(s);
  r.detections.push_back(DetectionEvent{2, 0, 3});
  r.add_outcome("ok", true);

  EXPECT_EQ(
      r.to_json(false),
      "{\"schema\":\"treeaa.run_report/1\",\"protocol\":\"demo\","
      "\"n\":4,\"t\":1,\"rounds\":2,"
      "\"params\":{\"eps\":0.5,\"engine\":\"bdh\"},"
      "\"corrupt\":[3],"
      "\"traffic\":{\"honest_messages\":10,\"honest_bytes\":20,"
      "\"adversary_messages\":1,\"adversary_bytes\":2},"
      "\"per_round\":[{\"round\":1,\"honest_messages\":10,"
      "\"honest_bytes\":20,\"adversary_messages\":1,\"adversary_bytes\":2,"
      "\"corrupt\":1,\"value_diameter\":2}],"
      "\"detections\":[{\"round\":2,\"detector\":0,\"leader\":3}],"
      "\"outcome\":{\"ok\":true},"
      "\"metrics\":{\"counters\":{},\"gauges\":{},\"histograms\":{}},"
      "\"timing\":{\"rounds\":2,\"wall\":null}}");
  // Opt-in timing swaps the null for the wall-clock registry.
  EXPECT_NE(r.to_json(true).find("\"wall\":{\"counters\""),
            std::string::npos);
}

TEST(RunReport, CanonicalTreeAAJsonIsByteDeterministic) {
  const auto tree = make_spider(4, 5);
  const auto report_json = [&tree] {
    const auto inputs = harness::spread_vertex_inputs(tree, 7);
    RunReport report;
    Hooks hooks;
    hooks.report = &report;
    auto adv = std::make_unique<sim::FuzzAdversary>(
        std::vector<PartyId>{6}, /*seed=*/3, 4, 16);
    const auto result =
        core::run_tree_aa(tree, inputs, 2, {}, std::move(adv), &hooks);
    EXPECT_GT(result.rounds, 0u);
    return report.to_json(false);
  };
  const std::string a = report_json();
  const std::string b = report_json();
  EXPECT_EQ(a, b);
  // The canonical form never contains wall-clock content.
  EXPECT_NE(a.find("\"wall\":null"), std::string::npos);
}

TEST(RunReport, ProbingDoesNotChangeTheRun) {
  const auto tree = make_spider(4, 5);
  const auto inputs = harness::spread_vertex_inputs(tree, 7);
  const auto adv = [] {
    return std::make_unique<sim::FuzzAdversary>(std::vector<PartyId>{6},
                                                /*seed=*/3, 4, 16);
  };
  const auto plain = core::run_tree_aa(tree, inputs, 2, {}, adv());
  RunReport report;
  Hooks hooks;
  hooks.report = &report;
  const auto probed = core::run_tree_aa(tree, inputs, 2, {}, adv(), &hooks);

  EXPECT_EQ(plain.outputs, probed.outputs);
  EXPECT_EQ(plain.corrupt, probed.corrupt);
  EXPECT_EQ(plain.rounds, probed.rounds);
  EXPECT_EQ(plain.traffic.honest_messages(),
            probed.traffic.honest_messages());
  EXPECT_EQ(plain.traffic.honest_bytes(), probed.traffic.honest_bytes());
  EXPECT_EQ(plain.traffic.adversary_messages(),
            probed.traffic.adversary_messages());
}

TEST(RunReport, PerRoundSeriesIsCompleteAndSumsToTotals) {
  const auto tree = make_spider(4, 5);
  const auto inputs = harness::spread_vertex_inputs(tree, 7);
  RunReport report;
  Hooks hooks;
  hooks.report = &report;
  auto adv = std::make_unique<sim::FuzzAdversary>(std::vector<PartyId>{6},
                                                  /*seed=*/3, 4, 16);
  const auto result =
      core::run_tree_aa(tree, inputs, 2, {}, std::move(adv), &hooks);

  ASSERT_EQ(report.per_round.size(), static_cast<std::size_t>(result.rounds));
  std::uint64_t honest = 0;
  std::uint64_t byz = 0;
  for (std::size_t i = 0; i < report.per_round.size(); ++i) {
    const RoundSample& s = report.per_round[i];
    EXPECT_EQ(s.round, static_cast<Round>(i + 1));
    honest += s.honest_messages;
    byz += s.adversary_messages;
    // TreeAA engages the vertex probes on every round.
    ASSERT_TRUE(s.value_diameter.has_value());
    ASSERT_TRUE(s.hull_size.has_value());
    EXPECT_GE(*s.hull_size, 1u);
  }
  EXPECT_EQ(honest, report.honest_messages);
  EXPECT_EQ(byz, report.adversary_messages);
  EXPECT_GT(byz, 0u);  // the fuzzer did inject
  // 1-Agreement at the end: the honest estimates span at most one edge.
  EXPECT_LE(*report.per_round.back().value_diameter, 1.0);
  EXPECT_LE(*report.per_round.back().hull_size, 2u);
  // The report carries the protocol's path-length histogram.
  EXPECT_NE(report.to_json(false).find("\"path_length\""),
            std::string::npos);
}

TEST(RunReport, RealAAGradesEngageOnIterationEndRounds) {
  realaa::Config cfg;
  cfg.n = 8;
  cfg.t = 2;
  cfg.eps = 1.0;
  cfg.known_range = 1e3;
  const auto inputs = harness::spread_real_inputs(cfg.n, 0.0, 1e3);
  auto adv =
      harness::make_extreme_input_puppets(cfg, {6, 7}, -5e3, 5e3);
  RunReport report;
  Hooks hooks;
  hooks.report = &report;
  const auto run = harness::run_real_aa(cfg, inputs, std::move(adv), &hooks);

  EXPECT_EQ(report.protocol, "real_aa");
  ASSERT_EQ(report.per_round.size(), static_cast<std::size_t>(run.rounds));
  const std::uint64_t honest =
      static_cast<std::uint64_t>(cfg.n - report.corrupt.size());
  for (const RoundSample& s : report.per_round) {
    ASSERT_TRUE(s.value_diameter.has_value());
    if (s.round % 3 == 0) {
      // Iteration end: every honest party graded every leader.
      ASSERT_TRUE(s.grades.has_value());
      const auto& g = *s.grades;
      EXPECT_EQ(g[0] + g[1] + g[2], honest * cfg.n);
    } else {
      EXPECT_FALSE(s.grades.has_value());
    }
  }
  // Convergence shows up in the probe series, not just the outputs.
  EXPECT_LE(*report.per_round.back().value_diameter, cfg.eps);
  // Detections (if any) happen on iteration-end rounds, by honest parties.
  for (const DetectionEvent& d : report.detections) {
    EXPECT_EQ(d.round % 3, 0u);
    EXPECT_EQ(std::count(report.corrupt.begin(), report.corrupt.end(),
                         d.detector),
              0);
  }
}

TEST(JsonlTrace, EveryLineParsesAndCountsMatchTraffic) {
  const auto tree = make_spider(3, 4);
  const auto inputs = harness::spread_vertex_inputs(tree, 5);
  RunReport report;
  JsonlTracer tracer;
  Hooks hooks;
  hooks.report = &report;
  hooks.tracer = &tracer;
  auto adv = std::make_unique<sim::FuzzAdversary>(std::vector<PartyId>{4},
                                                  /*seed=*/2, 3, 8);
  const auto result =
      core::run_tree_aa(tree, inputs, 1, {}, std::move(adv), &hooks);
  EXPECT_GT(result.rounds, 0u);

  ASSERT_FALSE(tracer.lines().empty());
  // The fuzzer corrupts at init (round 0), so the corruption line precedes
  // the first round marker.
  EXPECT_EQ(tracer.lines()[0], "{\"ev\":\"corrupt\",\"round\":0,\"party\":4}");
  EXPECT_EQ(tracer.lines()[1], "{\"ev\":\"round\",\"round\":1}");
  std::uint64_t sends = 0;
  std::uint64_t byz = 0;
  for (const std::string& line : tracer.lines()) {
    const auto parsed = treeaa::JsonValue::parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    ASSERT_TRUE(parsed->is_object()) << line;
    ASSERT_FALSE(parsed->members().empty());
    for (const auto& [key, value] : parsed->members()) {
      EXPECT_FALSE(value.is_array() || value.is_object()) << line;
    }
    EXPECT_EQ(parsed->members()[0].first, "ev");
    const std::string& ev = parsed->members()[0].second.as_string();
    if (ev == "send") ++sends;
    if (ev == "byz") ++byz;
  }
  EXPECT_EQ(sends, report.honest_messages);
  EXPECT_EQ(byz, report.adversary_messages);
  EXPECT_EQ(tracer.message_count(), sends + byz);

  // clear() makes the tracer reusable for a second run.
  tracer.clear();
  EXPECT_TRUE(tracer.lines().empty());
  EXPECT_EQ(tracer.message_count(), 0u);
}

}  // namespace
}  // namespace treeaa::obs
