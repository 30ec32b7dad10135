// treeaa_trace — offline convergence-ledger analyzer (docs/OBSERVABILITY.md).
//
//   treeaa_trace --report <file|-> [--spans <file>] [--transcript <file>]
//                [--eps X] [--out <file|->] [--strict-fekete] [--quiet]
//
// Ingests a "treeaa.run_report/1" document (and, optionally, the matching
// Chrome-trace span file and JSONL transcript), rebuilds the per-round
// convergence ledger, checks every observed diameter against the proven
// bounds (Fekete round budget, Theorem 3's RealAA product envelope, the
// 2^-k halving baseline, final eps-agreement), and writes the
// "treeaa.trace_report/1" document to --out (default: stdout).
//
//   --eps X          override the report's agreement target (vertex
//                    protocols default to eps = 1)
//   --spans F        Chrome trace JSON produced by --spans; echoed into the
//                    report as event/track statistics after a parse check
//   --transcript F   "treeaa.trace/1" JSONL transcript; echoed as line and
//                    message counts after a parse check
//   --strict-fekete  also fail (exit 1) when the run reached eps in fewer
//                    rounds than the Fekete lower bound. Fekete is
//                    worst-case over executions, so this is only sound on
//                    adversarial scenarios — hence opt-in.
//   --quiet          suppress the human summary on stderr
//
// Exit status: 0 when every check passed, 1 on any bound violation (the
// mislabeled-trace oracle), 2 on usage or input errors.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common_flags.h"
#include "common/json_value.h"
#include "exp/ledger.h"
#include "obs/sink.h"

namespace {

using namespace treeaa;

const tools::CommonFlagSet kTraceFlags = {.report_path = true,
                                          .spans = true,
                                          .quiet = true};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage:\n"
               "  treeaa_trace --report <file|-> [--transcript <file>]\n"
               "               [--eps X] [--out <file|->] [--strict-fekete]\n"
               "               "
            << tools::common_flags_usage(kTraceFlags) << "\n";
  std::exit(2);
}

std::string read_all(const std::string& path) {
  if (path == "-") {
    std::ostringstream os;
    os << std::cin.rdbuf();
    return os.str();
  }
  std::ifstream in(path);
  if (!in) usage("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Counts the span/flow events and track names of a Chrome trace-event
/// document ({"traceEvents": [...]}); exits on malformed JSON so CI's
/// "the trace parses" check is this tool, not an external validator.
exp::TraceStats span_stats(const std::string& text, exp::TraceStats stats) {
  const auto doc = treeaa::JsonValue::parse(text);
  if (!doc.has_value() || !doc->is_object()) {
    usage("--spans file is not a JSON object");
  }
  const treeaa::JsonValue* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    usage("--spans file has no traceEvents array");
  }
  std::uint64_t spans = 0;
  std::uint64_t flows = 0;
  for (const treeaa::JsonValue& e : events->items()) {
    const treeaa::JsonValue* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string()) continue;
    const std::string& kind = ph->as_string();
    if (kind == "X" || kind == "i") {
      ++spans;
    } else if (kind == "s" || kind == "f") {
      ++flows;
    } else if (kind == "M") {
      const treeaa::JsonValue* name = e.find("name");
      if (name == nullptr || !name->is_string() ||
          name->as_string() != "process_name") {
        continue;
      }
      const treeaa::JsonValue* args = e.find("args");
      const treeaa::JsonValue* process =
          args == nullptr ? nullptr : args->find("name");
      if (process != nullptr && process->is_string()) {
        stats.tracks.push_back(process->as_string());
      }
    }
  }
  stats.span_events = spans;
  stats.flow_events = flows;
  return stats;
}

/// Counts transcript lines and send/byz events of a "treeaa.trace/1" JSONL
/// transcript; every line must be a flat JSON object (scalar members only).
exp::TraceStats transcript_stats(const std::string& text,
                                 exp::TraceStats stats) {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto doc = treeaa::JsonValue::parse(line);
    const bool flat =
        doc.has_value() && doc->is_object() &&
        std::none_of(doc->members().begin(), doc->members().end(),
                     [](const auto& m) {
                       return m.second.is_array() || m.second.is_object();
                     });
    if (!flat) {
      usage("--transcript line " + std::to_string(events + 1) +
            " is not a flat JSON object");
    }
    ++events;
    const treeaa::JsonValue* ev = doc->find("ev");
    if (ev != nullptr && ev->is_string() &&
        (ev->as_string() == "send" || ev->as_string() == "byz")) {
      ++messages;
    }
  }
  stats.transcript_events = events;
  stats.transcript_messages = messages;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);

  std::string transcript_path;
  std::string out_path;
  std::optional<double> eps_override;
  bool strict_fekete = false;
  tools::CommonFlags flags;
  const tools::UsageFn fail = [](const std::string& m) { usage(m); };

  for (std::size_t i = 0; i < args.size(); ++i) {
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage("missing value after " + args[i]);
      return args[++i];
    };
    if (args[i] == "--transcript") {
      transcript_path = next();
    } else if (args[i] == "--out") {
      out_path = next();
    } else if (args[i] == "--eps") {
      eps_override = tools::parse_positive_double("--eps", next(), fail);
    } else if (args[i] == "--strict-fekete") {
      strict_fekete = true;
    } else if (tools::parse_common_flag(args, i, kTraceFlags, flags, fail)) {
      // consumed — --report here is the input run-report path, --spans the
      // matching Chrome-trace file (the same spellings the producers write).
    } else {
      usage("unknown option '" + args[i] + "'");
    }
  }
  const std::string& report_path = flags.report_path;
  const std::string& spans_path = flags.spans_path;
  const bool quiet = flags.quiet;
  if (report_path.empty()) usage("--report is required");
  if (out_path.empty()) out_path.push_back('-');

  try {
    const auto doc = treeaa::JsonValue::parse(read_all(report_path));
    if (!doc.has_value()) usage("--report file is not valid JSON");
    const auto input = exp::ledger_input_from_json(*doc, eps_override);
    if (!input.has_value()) {
      usage("--report is not a usable treeaa.run_report/1 document "
            "(missing protocol/n/t/rounds or non-positive eps)");
    }

    exp::TraceStats stats;
    if (!spans_path.empty()) {
      stats = span_stats(read_all(spans_path), std::move(stats));
    }
    if (!transcript_path.empty()) {
      stats = transcript_stats(read_all(transcript_path), std::move(stats));
    }

    const exp::Ledger ledger = exp::build_ledger(*input);
    if (!obs::write_sink(out_path, exp::trace_report_json(ledger, stats))) {
      return 2;
    }

    if (!quiet) {
      std::cerr << "trace '" << input->protocol << "': n = " << input->n
                << ", t = " << input->t << ", rounds = " << input->rounds
                << ", D0/eps = " << input->d0 << "/" << input->eps
                << "; Fekete lower bound " << ledger.fekete_lower_rounds
                << " round(s)";
      if (ledger.rounds_to_eps.has_value()) {
        std::cerr << ", reached eps at round " << *ledger.rounds_to_eps
                  << (ledger.within_fekete ? "" : " (faster than Fekete)");
      }
      std::cerr << "; " << ledger.violations << " violation(s)\n";
      for (const exp::LedgerCheck& c : ledger.checks) {
        std::cerr << "  [" << (c.ok ? "ok" : "VIOLATION") << "] " << c.name
                  << ": " << c.detail << "\n";
      }
    }
    if (strict_fekete && !ledger.within_fekete) {
      if (!quiet) {
        std::cerr << "  [VIOLATION] strict_fekete: reached eps at round "
                  << (ledger.rounds_to_eps.has_value()
                          ? std::to_string(*ledger.rounds_to_eps)
                          : std::string("-"))
                  << " < lower bound " << ledger.fekete_lower_rounds << "\n";
      }
      return 1;
    }
    return ledger.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
