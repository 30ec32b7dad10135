#include "exp/ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "bounds/fekete.h"
#include "common/json_value.h"
#include "obs/json.h"
#include "obs/report.h"
#include "realaa/rounds.h"

namespace treeaa::exp {

namespace {

// Floating-point slack for "observed <= proven bound" comparisons: the
// observed diameters and the envelopes both go through double arithmetic.
constexpr double kRelTol = 1e-9;
constexpr double kAbsTol = 1e-12;

bool exceeds(double observed, double bound) {
  return observed > bound * (1.0 + kRelTol) + kAbsTol;
}

bool is_gradecast_real(const std::string& protocol) {
  return protocol == "real_aa" || protocol == "iterated_real_aa";
}

std::optional<double> param_number(
    const std::vector<std::pair<std::string, std::string>>& params,
    std::string_view key) {
  for (const auto& [k, v] : params) {
    if (k != key) continue;
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (end == v.c_str()) return std::nullopt;
    return x;
  }
  return std::nullopt;
}

}  // namespace

double realaa_envelope(double d0, std::size_t n, std::size_t t,
                       std::size_t iterations) {
  if (iterations == 0) return d0;
  const double log_product = bounds::log_best_budget_product(t, iterations);
  const double log_denominator =
      static_cast<double>(iterations) *
      std::log(static_cast<double>(n - 2 * t));
  return d0 * std::exp(log_product - log_denominator);
}

bool within_fekete_bound(double D, double eps, std::size_t n, std::size_t t,
                         std::size_t rounds) {
  if (eps <= 0.0 || D <= 0.0 || n == 0) return true;
  return rounds >= bounds::lower_bound_rounds(D / eps, n, t);
}

std::optional<LedgerInput> ledger_input_from_report(
    const obs::RunReport& report) {
  LedgerInput in;
  in.protocol = report.protocol;
  in.n = report.n;
  in.t = report.t;
  in.rounds = report.rounds;
  if (in.protocol.empty() || in.n == 0) return std::nullopt;

  const auto eps = param_number(report.params, "eps");
  const auto known_range = param_number(report.params, "known_range");
  const auto graph_diameter = param_number(report.params, "graph_diameter");
  const auto tree_diameter = param_number(report.params, "tree_diameter");
  in.eps = eps.value_or(1.0);
  if (in.protocol == "block_aa") {
    in.block_round_bound = param_number(report.params, "block_round_bound");
  }
  for (const auto& s : report.per_round) {
    if (s.value_diameter.has_value()) {
      in.diameters.emplace_back(s.round, *s.value_diameter);
    }
  }
  if (known_range.has_value()) {
    in.d0 = *known_range;
  } else if (graph_diameter.has_value()) {
    in.d0 = *graph_diameter;
  } else if (tree_diameter.has_value()) {
    in.d0 = *tree_diameter;
  } else {
    // No claimed initial diameter: fall back to the largest observed one
    // (understates D — budget feasibility stays sound, never spurious).
    double d0 = 0.0;
    for (const auto& [r, d] : in.diameters) d0 = std::max(d0, d);
    in.d0 = d0;
  }
  if (in.eps <= 0.0) return std::nullopt;
  return in;
}

std::optional<LedgerInput> ledger_input_from_json(
    const JsonValue& report, std::optional<double> eps_override) {
  if (!report.is_object()) return std::nullopt;
  const JsonValue* schema = report.find("schema");
  if (schema != nullptr && schema->is_string() &&
      schema->as_string() != "treeaa.run_report/1") {
    return std::nullopt;
  }
  obs::RunReport shim;
  const JsonValue* protocol = report.find("protocol");
  const JsonValue* n = report.find("n");
  const JsonValue* t = report.find("t");
  const JsonValue* rounds = report.find("rounds");
  if (protocol == nullptr || !protocol->is_string() || n == nullptr ||
      !n->is_number() || t == nullptr || !t->is_number() ||
      rounds == nullptr || !rounds->is_number()) {
    return std::nullopt;
  }
  shim.protocol = protocol->as_string();
  shim.n = static_cast<std::size_t>(n->as_number());
  shim.t = static_cast<std::size_t>(t->as_number());
  shim.rounds = static_cast<Round>(rounds->as_number());
  if (const JsonValue* params = report.find("params");
      params != nullptr && params->is_object()) {
    for (const auto& [key, value] : params->members()) {
      if (value.is_number()) shim.add_param(key, value.as_number());
    }
  }
  if (const JsonValue* per_round = report.find("per_round");
      per_round != nullptr && per_round->is_array()) {
    for (const JsonValue& row : per_round->items()) {
      const JsonValue* round = row.find("round");
      const JsonValue* diameter = row.find("value_diameter");
      if (round == nullptr || !round->is_number()) continue;
      obs::RoundSample s;
      s.round = static_cast<Round>(round->as_number());
      if (diameter != nullptr && diameter->is_number()) {
        s.value_diameter = diameter->as_number();
      }
      shim.per_round.push_back(s);
    }
  }
  auto in = ledger_input_from_report(shim);
  if (in.has_value() && eps_override.has_value()) {
    if (*eps_override <= 0.0) return std::nullopt;
    in->eps = *eps_override;
  }
  return in;
}

Ledger build_ledger(const LedgerInput& input) {
  Ledger ledger;
  ledger.input = input;
  const double ratio = input.eps > 0.0 ? input.d0 / input.eps : 0.0;

  if (ratio > 0.0 && input.n >= 1) {
    ledger.fekete_lower_rounds =
        bounds::lower_bound_rounds(ratio, input.n, input.t);
    ledger.theorem2_closed_form =
        bounds::theorem2_closed_form(ratio, input.n, input.t);
  }
  if (is_gradecast_real(input.protocol)) {
    ledger.theorem3_round_bound =
        realaa::theorem3_round_bound(input.d0, input.eps);
  }

  const bool check_monotone = is_gradecast_real(input.protocol);
  const bool check_envelope =
      is_gradecast_real(input.protocol) && fault_bound_holds(input.n, input.t);
  std::size_t expansion_rows = 0;
  std::size_t envelope_rows = 0;

  std::optional<double> prev;
  for (const auto& [round, diameter] : input.diameters) {
    LedgerRow row;
    row.round = round;
    row.diameter = diameter;
    if (prev.has_value() && *prev > 0.0) {
      row.contraction = diameter / *prev;
    }
    if (check_monotone && prev.has_value() && exceeds(diameter, *prev)) {
      row.violation = true;
      row.note = "diameter expanded (" + obs::json_number(*prev) + " -> " +
                 obs::json_number(diameter) + ")";
      ++expansion_rows;
    }
    // Iteration-end rounds (every third: leader/echo/support) carry the
    // cumulative worst-case envelope of Theorem 3's accounting.
    if (check_envelope && round > 0 && round % 3 == 0) {
      const std::size_t iterations = round / 3;
      double envelope = 0.0;
      if (input.protocol == "real_aa") {
        envelope = realaa_envelope(input.d0, input.n, input.t, iterations);
      } else {
        // Iterated baseline: the honest range at least halves per
        // iteration (the classic 2^-k convergence).
        envelope = input.d0 * std::ldexp(1.0, -static_cast<int>(std::min(
                                                  iterations,
                                                  std::size_t{1000})));
      }
      row.envelope = envelope;
      if (exceeds(diameter, envelope)) {
        if (!row.violation) row.violation = true;
        if (!row.note.empty()) row.note += "; ";
        row.note += "above proven envelope " + obs::json_number(envelope);
        ++envelope_rows;
      }
    }
    if (!ledger.rounds_to_eps.has_value() && diameter <= input.eps) {
      ledger.rounds_to_eps = round;
    }
    prev = diameter;
    ledger.rows.push_back(std::move(row));
  }

  ledger.within_fekete =
      !ledger.rounds_to_eps.has_value() ||
      static_cast<std::size_t>(*ledger.rounds_to_eps) >=
          ledger.fekete_lower_rounds;

  // Summary checks. A failed check counts as a violation.
  {
    LedgerCheck c;
    c.name = "budget_feasible";
    c.ok = input.rounds >= ledger.fekete_lower_rounds;
    c.detail = "round budget " + std::to_string(input.rounds) +
               " vs Fekete lower bound " +
               std::to_string(ledger.fekete_lower_rounds) + " for D/eps = " +
               obs::json_number(ratio);
    if (!c.ok) {
      c.detail += " — no deterministic protocol can achieve this";
    }
    ledger.checks.push_back(std::move(c));
  }
  if (check_monotone) {
    LedgerCheck c;
    c.name = "non_expansion";
    c.ok = expansion_rows == 0;
    c.detail = std::to_string(expansion_rows) + " expanding round(s)";
    ledger.checks.push_back(std::move(c));
  }
  if (check_envelope) {
    LedgerCheck c;
    c.name = "contraction_envelope";
    c.ok = envelope_rows == 0;
    c.detail =
        std::to_string(envelope_rows) + " iteration-end round(s) above " +
        (input.protocol == "real_aa" ? "the Theorem 3 product envelope"
                                     : "the 2^-k halving envelope");
    ledger.checks.push_back(std::move(c));
  }
  if (input.block_round_bound.has_value()) {
    // arXiv:2502.05591: BlockAA's contraction on a block graph stays within
    // the inner TreeAA's round budget on the agreement tree — the observed
    // rounds, and the observed rounds-to-eps when reached, never exceed it.
    LedgerCheck c;
    c.name = "block_round_bound";
    const double bound = *input.block_round_bound;
    const bool rounds_ok = !exceeds(static_cast<double>(input.rounds), bound);
    const bool to_eps_ok =
        !ledger.rounds_to_eps.has_value() ||
        !exceeds(static_cast<double>(*ledger.rounds_to_eps), bound);
    c.ok = rounds_ok && to_eps_ok;
    c.detail = "observed rounds " + std::to_string(input.rounds) +
               (ledger.rounds_to_eps.has_value()
                    ? ", rounds-to-eps " + std::to_string(*ledger.rounds_to_eps)
                    : std::string(", eps not reached")) +
               " vs arXiv:2502.05591 agreement-tree bound " +
               obs::json_number(bound);
    ledger.checks.push_back(std::move(c));
  }
  // BlockAA's convergence target is a *block*, not a vertex: a converged
  // run legitimately ends with graph-metric diameter up to the largest
  // block's diameter (a cactus cycle, say), so comparing the raw series
  // against eps would manufacture violations. Its round-budget claim is
  // block_round_bound above; block-level 1-agreement is the caller's
  // output check, not a diameter-series property.
  if (!input.diameters.empty() && input.protocol != "block_aa") {
    LedgerCheck c;
    c.name = "final_within_eps";
    const double final_diameter = input.diameters.back().second;
    c.ok = !exceeds(final_diameter, input.eps);
    c.detail = "final diameter " + obs::json_number(final_diameter) +
               " vs eps " + obs::json_number(input.eps);
    ledger.checks.push_back(std::move(c));
  }

  ledger.violations = expansion_rows + envelope_rows;
  // Envelope + expansion on one row counted once per cause above; count
  // failed checks that aren't already row-level causes.
  for (const LedgerCheck& c : ledger.checks) {
    if (!c.ok && c.name != "non_expansion" &&
        c.name != "contraction_envelope") {
      ++ledger.violations;
    }
  }
  return ledger;
}

std::string trace_report_json(const Ledger& ledger, const TraceStats& stats) {
  std::string out;
  obs::JsonWriter w(out);
  const LedgerInput& in = ledger.input;
  w.begin_object();
  w.key("schema");
  w.value(kTraceReportSchema);
  w.key("protocol");
  w.value(in.protocol);
  w.key("n");
  w.value(static_cast<std::uint64_t>(in.n));
  w.key("t");
  w.value(static_cast<std::uint64_t>(in.t));
  w.key("rounds");
  w.value(static_cast<std::uint64_t>(in.rounds));
  w.key("d0");
  w.value(in.d0);
  w.key("eps");
  w.value(in.eps);

  w.key("bounds");
  w.begin_object();
  w.key("fekete_lower_rounds");
  w.value(static_cast<std::uint64_t>(ledger.fekete_lower_rounds));
  w.key("theorem2_closed_form");
  w.value(ledger.theorem2_closed_form);
  w.key("theorem3_round_bound");
  if (ledger.theorem3_round_bound.has_value()) {
    w.value(*ledger.theorem3_round_bound);
  } else {
    w.null();
  }
  if (in.block_round_bound.has_value()) {
    w.key("block_round_bound");
    w.value(*in.block_round_bound);
  }
  w.end_object();

  w.key("observed_rounds_to_eps");
  if (ledger.rounds_to_eps.has_value()) {
    w.value(static_cast<std::uint64_t>(*ledger.rounds_to_eps));
  } else {
    w.null();
  }
  w.key("within_fekete");
  w.value(ledger.within_fekete);

  w.key("ledger");
  w.begin_array();
  for (const LedgerRow& row : ledger.rows) {
    w.begin_object();
    w.key("round");
    w.value(static_cast<std::uint64_t>(row.round));
    w.key("diameter");
    w.value(row.diameter);
    if (row.contraction.has_value()) {
      w.key("contraction");
      w.value(*row.contraction);
    }
    if (row.envelope.has_value()) {
      w.key("envelope");
      w.value(*row.envelope);
    }
    w.key("violation");
    w.value(row.violation);
    if (!row.note.empty()) {
      w.key("note");
      w.value(row.note);
    }
    w.end_object();
  }
  w.end_array();

  w.key("checks");
  w.begin_array();
  for (const LedgerCheck& c : ledger.checks) {
    w.begin_object();
    w.key("name");
    w.value(c.name);
    w.key("ok");
    w.value(c.ok);
    w.key("detail");
    w.value(c.detail);
    w.end_object();
  }
  w.end_array();

  w.key("violations");
  w.value(static_cast<std::uint64_t>(ledger.violations));
  w.key("ok");
  w.value(ledger.ok());

  const bool have_spans =
      stats.span_events.has_value() || !stats.tracks.empty();
  const bool have_transcript = stats.transcript_events.has_value();
  if (have_spans || have_transcript) {
    w.key("trace");
    w.begin_object();
    if (have_spans) {
      w.key("span_events");
      w.value(stats.span_events.value_or(0));
      w.key("flow_events");
      w.value(stats.flow_events.value_or(0));
      w.key("tracks");
      w.begin_array();
      for (const std::string& track : stats.tracks) w.value(track);
      w.end_array();
    }
    if (have_transcript) {
      w.key("transcript_events");
      w.value(*stats.transcript_events);
      w.key("transcript_messages");
      w.value(stats.transcript_messages.value_or(0));
    }
    w.end_object();
  }
  w.end_object();
  return out;
}

}  // namespace treeaa::exp
