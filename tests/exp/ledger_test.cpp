// Convergence ledger: bound helpers, report ingestion, the per-round
// checks, and — critically — the mislabeled-trace oracle: a report whose
// claimed (D, eps, rounds) is infeasible under Fekete's lower bound must
// fail budget_feasible and count a violation.
#include "exp/ledger.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "bounds/fekete.h"
#include "common/json_value.h"
#include "obs/report.h"

namespace treeaa::exp {
namespace {

LedgerInput real_input() {
  LedgerInput in;
  in.protocol = "real_aa";
  in.n = 16;
  in.t = 5;
  in.d0 = 1e4;
  in.eps = 1.0;
  return in;
}

TEST(WithinFeketeBound, AgreesWithLowerBoundRounds) {
  const std::size_t lb = bounds::lower_bound_rounds(1e4, 16, 5);
  ASSERT_GE(lb, 1u);
  EXPECT_TRUE(within_fekete_bound(1e4, 1.0, 16, 5, lb));
  EXPECT_TRUE(within_fekete_bound(1e4, 1.0, 16, 5, lb + 7));
  EXPECT_FALSE(within_fekete_bound(1e4, 1.0, 16, 5, lb - 1));
}

TEST(WithinFeketeBound, DegenerateInputsAreVacuouslyWithin) {
  EXPECT_TRUE(within_fekete_bound(0.0, 1.0, 16, 5, 0));   // no spread
  EXPECT_TRUE(within_fekete_bound(1e4, 0.0, 16, 5, 0));   // no target
  EXPECT_TRUE(within_fekete_bound(1e4, 1.0, 0, 0, 0));    // no parties
}

TEST(RealaaEnvelope, ZeroIterationsIsTheInitialDiameter) {
  EXPECT_DOUBLE_EQ(realaa_envelope(1e4, 16, 5, 0), 1e4);
}

TEST(RealaaEnvelope, SingleIterationSingleBudgetIsExact) {
  // t = 1 forced into one iteration: best product is 1, denominator n - 2t.
  EXPECT_DOUBLE_EQ(realaa_envelope(10.0, 4, 1, 1), 10.0 / 2.0);
}

TEST(RealaaEnvelope, ShrinksAsIterationsAccumulate) {
  double prev = realaa_envelope(1e6, 16, 5, 1);
  for (std::size_t k = 2; k <= 8; ++k) {
    const double cur = realaa_envelope(1e6, 16, 5, k);
    EXPECT_LT(cur, prev) << "k = " << k;
    prev = cur;
  }
}

TEST(BuildLedger, CleanContractionPassesEveryCheck) {
  LedgerInput in = real_input();
  in.rounds = 12;
  // Iteration ends at rounds 3/6/9/12, each comfortably inside the
  // worst-case product envelope; final diameter within eps.
  in.diameters = {{0, 1e4}, {3, 100.0}, {6, 10.0}, {9, 2.0}, {12, 0.5}};
  const Ledger ledger = build_ledger(in);
  EXPECT_TRUE(ledger.ok());
  EXPECT_EQ(ledger.violations, 0u);
  ASSERT_TRUE(ledger.rounds_to_eps.has_value());
  EXPECT_EQ(*ledger.rounds_to_eps, 12u);
  EXPECT_TRUE(ledger.theorem3_round_bound.has_value());
  ASSERT_EQ(ledger.checks.size(), 4u);
  EXPECT_EQ(ledger.checks[0].name, "budget_feasible");
  EXPECT_EQ(ledger.checks[1].name, "non_expansion");
  EXPECT_EQ(ledger.checks[2].name, "contraction_envelope");
  EXPECT_EQ(ledger.checks[3].name, "final_within_eps");
  for (const LedgerCheck& c : ledger.checks) EXPECT_TRUE(c.ok) << c.name;
}

TEST(BuildLedger, MislabeledTraceFailsBudgetFeasibility) {
  // The oracle: a report claiming eps-agreement from spread 1e4 in fewer
  // rounds than Fekete's K(R, D) allows describes an impossible protocol.
  LedgerInput in = real_input();
  const std::size_t lb = bounds::lower_bound_rounds(in.d0, in.n, in.t);
  ASSERT_GE(lb, 1u);
  in.rounds = static_cast<Round>(lb - 1);
  in.diameters = {{0, 1e4}, {static_cast<Round>(lb - 1), 0.5}};
  const Ledger ledger = build_ledger(in);
  EXPECT_FALSE(ledger.ok());
  EXPECT_GE(ledger.violations, 1u);
  bool found = false;
  for (const LedgerCheck& c : ledger.checks) {
    if (c.name != "budget_feasible") continue;
    found = true;
    EXPECT_FALSE(c.ok);
    EXPECT_NE(c.detail.find("no deterministic protocol"), std::string::npos);
  }
  EXPECT_TRUE(found);
}

TEST(BuildLedger, ExpansionRoundsAreFlaggedForGradecastProtocols) {
  LedgerInput in = real_input();
  in.rounds = 40;
  in.diameters = {{0, 1e4}, {1, 1e4}, {2, 2e4}, {3, 50.0}, {40, 0.1}};
  const Ledger ledger = build_ledger(in);
  EXPECT_FALSE(ledger.ok());
  ASSERT_EQ(ledger.rows.size(), 5u);
  EXPECT_FALSE(ledger.rows[1].violation);  // flat is not expansion
  EXPECT_TRUE(ledger.rows[2].violation);
  EXPECT_NE(ledger.rows[2].note.find("expanded"), std::string::npos);
  for (const LedgerCheck& c : ledger.checks) {
    if (c.name == "non_expansion") {
      EXPECT_FALSE(c.ok);
    }
  }
}

TEST(BuildLedger, EnvelopeViolationFiresOnIterationEndRounds) {
  LedgerInput in = real_input();
  in.rounds = 40;
  // Round 6 = iteration 2: envelope is d0 * sup(prod t_i)/(n-2t)^2 — far
  // below d0. A diameter still at d0 there must be flagged.
  in.diameters = {{0, 1e4}, {6, 9999.0}, {40, 0.1}};
  const Ledger ledger = build_ledger(in);
  EXPECT_FALSE(ledger.ok());
  ASSERT_EQ(ledger.rows.size(), 3u);
  ASSERT_TRUE(ledger.rows[1].envelope.has_value());
  EXPECT_TRUE(ledger.rows[1].violation);
  for (const LedgerCheck& c : ledger.checks) {
    if (c.name == "contraction_envelope") {
      EXPECT_FALSE(c.ok);
    }
  }
}

TEST(BuildLedger, VertexProtocolsSkipGradecastOnlyChecks) {
  LedgerInput in;
  in.protocol = "tree_aa";
  in.n = 7;
  in.t = 2;
  in.rounds = 10;
  in.d0 = 40.0;
  // A momentary plateau/growth is legal for TreeAA's per-round series
  // (phases within an iteration may not contract monotonically).
  in.diameters = {{0, 40.0}, {1, 41.0}, {9, 1.0}};
  const Ledger ledger = build_ledger(in);
  EXPECT_TRUE(ledger.ok());
  EXPECT_FALSE(ledger.theorem3_round_bound.has_value());
  for (const LedgerCheck& c : ledger.checks) {
    EXPECT_NE(c.name, "non_expansion");
    EXPECT_NE(c.name, "contraction_envelope");
  }
}

TEST(BuildLedger, BlockRoundBoundCheckPassesAndFails) {
  // BlockAA: the observed rounds must respect the arXiv:2502.05591 budget
  // on the agreement tree (the report's block_round_bound param).
  LedgerInput in;
  in.protocol = "block_aa";
  in.n = 7;
  in.t = 2;
  in.rounds = 12;
  in.d0 = 9.0;
  in.block_round_bound = 12.0;
  in.diameters = {{0, 9.0}, {6, 3.0}, {12, 1.0}};
  {
    const Ledger ledger = build_ledger(in);
    bool found = false;
    for (const LedgerCheck& c : ledger.checks) {
      if (c.name != "block_round_bound") continue;
      found = true;
      EXPECT_TRUE(c.ok) << c.detail;
      EXPECT_NE(c.detail.find("2502.05591"), std::string::npos);
    }
    EXPECT_TRUE(found);
    EXPECT_TRUE(ledger.ok());
  }
  // More observed rounds than the bound allows: the check fails and counts
  // a violation.
  in.rounds = 13;
  in.diameters = {{0, 9.0}, {6, 3.0}, {13, 1.0}};
  {
    const Ledger ledger = build_ledger(in);
    bool found = false;
    for (const LedgerCheck& c : ledger.checks) {
      if (c.name != "block_round_bound") continue;
      found = true;
      EXPECT_FALSE(c.ok);
    }
    EXPECT_TRUE(found);
    EXPECT_FALSE(ledger.ok());
  }
  // Without the param (every other protocol) the check never appears.
  in.block_round_bound.reset();
  for (const LedgerCheck& c : build_ledger(in).checks) {
    EXPECT_NE(c.name, "block_round_bound");
  }
}

TEST(LedgerInputFromReport, BlockAAReadsGraphDiameterAndRoundBound) {
  obs::RunReport report;
  report.protocol = "block_aa";
  report.n = 7;
  report.t = 2;
  report.rounds = 15;
  report.add_param("graph_diameter", 11.0);
  report.add_param("block_round_bound", 15.0);
  obs::RoundSample s;
  s.round = 0;
  s.value_diameter = 11.0;
  report.per_round = {s};
  const auto in = ledger_input_from_report(report);
  ASSERT_TRUE(in.has_value());
  // d0 comes from the graph diameter (the ledger's D for block graphs),
  // not the observed-series fallback.
  EXPECT_DOUBLE_EQ(in->d0, 11.0);
  ASSERT_TRUE(in->block_round_bound.has_value());
  EXPECT_DOUBLE_EQ(*in->block_round_bound, 15.0);
  // Other protocols never pick the param up, even if present.
  report.protocol = "tree_aa";
  const auto tree_in = ledger_input_from_report(report);
  ASSERT_TRUE(tree_in.has_value());
  EXPECT_FALSE(tree_in->block_round_bound.has_value());
}

TEST(BuildLedger, LuckyFastRunIsInformationalNotAViolation) {
  // Fekete is worst-case over executions: reaching eps before the lower
  // bound flips within_fekete but must not add a violation.
  LedgerInput in = real_input();
  const std::size_t lb = bounds::lower_bound_rounds(in.d0, in.n, in.t);
  ASSERT_GE(lb, 2u);
  in.rounds = 40;
  in.diameters = {{0, 1e4}, {1, 0.5}, {40, 0.2}};
  const Ledger ledger = build_ledger(in);
  EXPECT_FALSE(ledger.within_fekete);
  EXPECT_TRUE(ledger.ok());
}

TEST(LedgerInputFromReport, ReadsParamsAndPerRoundSeries) {
  obs::RunReport report;
  report.protocol = "real_aa";
  report.n = 16;
  report.t = 5;
  report.rounds = 21;
  report.add_param("eps", 2.0);
  report.add_param("known_range", 1e5);
  obs::RoundSample s0;
  s0.round = 0;
  s0.value_diameter = 1e5;
  obs::RoundSample s1;
  s1.round = 3;  // no diameter sample
  obs::RoundSample s2;
  s2.round = 6;
  s2.value_diameter = 500.0;
  report.per_round = {s0, s1, s2};
  const auto in = ledger_input_from_report(report);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->protocol, "real_aa");
  EXPECT_DOUBLE_EQ(in->eps, 2.0);
  EXPECT_DOUBLE_EQ(in->d0, 1e5);
  ASSERT_EQ(in->diameters.size(), 2u);  // the sample-less round is absent
  EXPECT_EQ(in->diameters[1].first, 6u);
}

TEST(LedgerInputFromReport, FallsBackToLargestObservedDiameter) {
  obs::RunReport report;
  report.protocol = "tree_aa";
  report.n = 7;
  report.t = 2;
  report.rounds = 8;
  obs::RoundSample s;
  s.round = 0;
  s.value_diameter = 33.0;
  report.per_round = {s};
  const auto in = ledger_input_from_report(report);
  ASSERT_TRUE(in.has_value());
  EXPECT_DOUBLE_EQ(in->d0, 33.0);
  EXPECT_DOUBLE_EQ(in->eps, 1.0);
}

TEST(LedgerInputFromJson, ParsesRunReportDocuments) {
  const auto doc = JsonValue::parse(R"({
    "schema": "treeaa.run_report/1",
    "protocol": "real_aa", "n": 16, "t": 5, "rounds": 21,
    "params": {"eps": 1, "known_range": 10000},
    "per_round": [
      {"round": 0, "value_diameter": 10000},
      {"round": 3, "value_diameter": 120.5}
    ]
  })");
  ASSERT_TRUE(doc.has_value());
  const auto in = ledger_input_from_json(*doc);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->n, 16u);
  EXPECT_DOUBLE_EQ(in->d0, 10000.0);
  ASSERT_EQ(in->diameters.size(), 2u);
  EXPECT_DOUBLE_EQ(in->diameters[1].second, 120.5);
  // eps_override replaces the report's eps.
  const auto overridden = ledger_input_from_json(*doc, 0.5);
  ASSERT_TRUE(overridden.has_value());
  EXPECT_DOUBLE_EQ(overridden->eps, 0.5);
}

TEST(LedgerInputFromJson, RejectsForeignSchemasAndMissingFields) {
  const auto wrong = JsonValue::parse(
      R"({"schema": "treeaa.net_report/1", "protocol": "x",
          "n": 4, "t": 1, "rounds": 2})");
  ASSERT_TRUE(wrong.has_value());
  EXPECT_FALSE(ledger_input_from_json(*wrong).has_value());
  const auto partial = JsonValue::parse(R"({"protocol": "real_aa", "n": 4})");
  ASSERT_TRUE(partial.has_value());
  EXPECT_FALSE(ledger_input_from_json(*partial).has_value());
}

TEST(TraceReportJson, IsValidDeterministicJsonWithTraceStats) {
  LedgerInput in = real_input();
  in.rounds = 21;
  // Round 21 = iteration 7 > t: the best budget product degenerates to 1,
  // so the envelope there is d0/(n-2t)^7 ≈ 0.036 — the final diameter must
  // sit below it for the clean-ledger path.
  in.diameters = {{0, 1e4}, {3, 50.0}, {21, 0.01}};
  const Ledger ledger = build_ledger(in);
  TraceStats stats;
  stats.span_events = 42;
  stats.flow_events = 10;
  stats.tracks = {"engine", "parties"};
  stats.transcript_events = 100;
  stats.transcript_messages = 60;
  const std::string a = trace_report_json(ledger, stats);
  const std::string b = trace_report_json(ledger, stats);
  EXPECT_EQ(a, b);
  const auto doc = JsonValue::parse(a);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->as_string(), "treeaa.trace_report/1");
  EXPECT_TRUE(doc->find("ok")->as_bool());
  ASSERT_NE(doc->find("ledger"), nullptr);
  EXPECT_EQ(doc->find("ledger")->items().size(), 3u);
  const JsonValue* trace = doc->find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_DOUBLE_EQ(trace->find("span_events")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(trace->find("transcript_messages")->as_number(), 60.0);
  ASSERT_EQ(trace->find("tracks")->items().size(), 2u);
}

}  // namespace
}  // namespace treeaa::exp
