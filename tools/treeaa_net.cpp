// treeaa_net — run TreeAA (or BlockAA) end to end over the real socket
// transport.
//
//   treeaa_net <file|-> --t <t> --inputs <l1,l2,...>
//              [--graph]
//              [--adversary none|silent|fuzz] [--faults <spec>]
//              [--seed <s>] [--timeout-ms <m>] [--engine bdh|classic]
//              [--threads <k>] [--report <file|->] [--no-crosscheck]
//              [--trace <file|->] [--trace-format text|jsonl]
//              [--spans <file|->] [--timings] [--quiet]
//
// Every party runs on its own thread behind the loopback mesh
// (docs/NET.md); `--faults` injects deterministic link faults, e.g.
// "drop=0.1,delay=0.05,dup=0.02,corrupt=0.02,crash=3@4". After the run the
// honest outputs are checked for Validity and 1-Agreement AND — unless
// --no-crosscheck — compared vertex for vertex against a same-seed
// sim::Engine reference execution. The exit status is 0 only when both
// hold; `--report` writes the machine-readable "treeaa.net_report/1"
// document (the TREEAA_METRICS environment variable is the usual fallback
// destination; reports are byte-reproducible across identical runs).
//
// Observability parity with treeaa_cli (docs/OBSERVABILITY.md): --trace
// records the cross-check replay engine's transcript ("treeaa.trace/1";
// requires the cross-check), --spans writes the Chrome trace-event timeline
// covering every socket party thread plus the replay engine, --timings adds
// the barrier-wait / wire-lag histograms to the report's "timing" section.
// Only --timings changes report bytes; a timing-free report stays
// byte-reproducible with any of these attached.
//
// With --graph the input file is a block graph (docs/GRAPHS.md text
// format) and the deployment runs BlockAA: the inner TreeAA executes on
// the agreement tree A(G) over the same socket mesh, outputs are
// gate-mapped back to G vertices, and the Validity / 1-Agreement verdict
// is taken in the graph metric (graphs::check_agreement).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "common/types.h"
#include "common_flags.h"
#include "graphs/serialization.h"
#include "net/deploy.h"
#include "obs/probe.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "sim/trace.h"
#include "trees/serialization.h"

namespace {

using namespace treeaa;

const tools::CommonFlagSet kNetFlags = {.seed = true,
                                        .threads = true,
                                        .report_path = true,
                                        .trace = true,
                                        .spans = true,
                                        .timings = true,
                                        .quiet = true};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  treeaa_net <file|-> --t <t> --inputs <l1,l2,...>\n"
      "             [--graph]\n"
      "             [--adversary none|silent|fuzz] [--corrupt <k<=t>]\n"
      "             [--faults <spec>]\n"
      "             [--timeout-ms <m>] [--engine bdh|classic] "
      "[--no-crosscheck]\n"
      "             " << tools::common_flags_usage(kNetFlags) << "\n"
      "\n"
      "fault spec keys: drop, delay, dup, corrupt, reorder (probabilities),\n"
      "delay-rounds=<k>, crash=<party>@<round> (repeatable)\n";
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

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(s);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int run(const std::vector<std::string>& args) {
  if (args.empty()) usage("need <file|->");
  const std::string topology_text = read_all(args[0]);

  bool graph_mode = false;
  std::size_t t = 0;
  std::vector<std::string> input_labels;
  std::string adversary = "none";
  std::string faults_spec;
  std::string engine = "bdh";
  net::DeployConfig cfg;
  tools::CommonFlags flags;
  const tools::UsageFn fail = [](const std::string& m) { usage(m); };
  for (std::size_t i = 1; i < args.size(); ++i) {
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage("missing value after " + args[i]);
      return args[++i];
    };
    if (args[i] == "--t") {
      t = tools::parse_unsigned("--t", next(), fail);
    } else if (args[i] == "--graph") {
      graph_mode = true;
    } else if (args[i] == "--inputs") {
      input_labels = split_csv(next());
    } else if (args[i] == "--adversary") {
      adversary = next();
    } else if (args[i] == "--corrupt") {
      cfg.corrupt_count = tools::parse_unsigned("--corrupt", next(), fail);
    } else if (args[i] == "--faults") {
      faults_spec = next();
    } else if (args[i] == "--timeout-ms") {
      cfg.round_timeout_ms = static_cast<int>(tools::parse_unsigned_at_most(
          "--timeout-ms", next(), std::numeric_limits<int>::max(), fail));
      if (cfg.round_timeout_ms <= 0) usage("--timeout-ms must be positive");
    } else if (args[i] == "--engine") {
      engine = next();
    } else if (args[i] == "--no-crosscheck") {
      cfg.crosscheck = false;
    } else if (tools::parse_common_flag(args, i, kNetFlags, flags, fail)) {
      // consumed
    } else {
      usage("unknown option '" + args[i] + "'");
    }
  }
  cfg.seed = flags.seed;
  cfg.threads = flags.threads;
  std::string report_path = flags.report_path;
  const std::string& trace_path = flags.trace_path;
  const std::string& trace_format = flags.trace_format;
  const std::string& spans_path = flags.spans_path;
  const bool timings = flags.timings;
  const bool quiet = flags.quiet;
  if (input_labels.empty()) usage("--inputs is required");
  report_path = obs::resolve_metrics_path(std::move(report_path));
  const std::size_t n = input_labels.size();
  if (!fault_bound_holds(n, t)) usage("need n > 3t");

  // The two topology worlds. In graph mode the BlockIndex wraps the parsed
  // block graph; labels resolve against G, and the pretty-printed outputs
  // are G labels too — the A(G) detour stays an implementation detail.
  std::optional<LabeledTree> tree;
  std::optional<graphs::BlockIndex> index;
  if (graph_mode) {
    index.emplace(graphs::graph_from_text(topology_text));
  } else {
    tree.emplace(tree_from_text(topology_text));
  }
  auto find_vertex = [&](const std::string& label) {
    return graph_mode ? index->graph().find(label) : tree->find(label);
  };
  auto vertex_label = [&](VertexId v) -> const std::string& {
    return graph_mode ? index->graph().label(v) : tree->label(v);
  };

  std::vector<VertexId> inputs;
  for (const auto& label : input_labels) {
    const auto v = find_vertex(label);
    if (!v.has_value()) usage("no vertex labeled '" + label + "'");
    inputs.push_back(*v);
  }

  const auto kind = net::parse_adversary(adversary);
  if (!kind.has_value()) usage("unknown adversary '" + adversary + "'");
  cfg.adversary = *kind;
  if (engine == "classic") {
    cfg.protocol.engine = core::RealEngineKind::kClassicHalving;
  } else if (engine != "bdh") {
    usage("unknown engine '" + engine + "'");
  }
  try {
    cfg.faults = net::FaultPlan::parse(faults_spec);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  if (!trace_path.empty() && !cfg.crosscheck) {
    usage("--trace records the replay transcript and needs the cross-check");
  }

  sim::RecordingTracer text_tracer;
  obs::JsonlTracer jsonl_tracer;
  obs::SpanSink span_sink;
  if (!trace_path.empty()) {
    cfg.sim_tracer = trace_format == "jsonl"
                         ? static_cast<sim::Tracer*>(&jsonl_tracer)
                         : static_cast<sim::Tracer*>(&text_tracer);
  }
  if (!spans_path.empty()) cfg.spans = &span_sink;
  cfg.timings = timings;

  const auto result = graph_mode
                          ? net::run_block_aa_net(*index, inputs, t, cfg)
                          : net::run_tree_aa_net(*tree, inputs, t, cfg);

  if (!report_path.empty()) {
    if (!obs::write_sink(report_path, result.report.to_json(timings) + "\n")) {
      return 2;
    }
  }
  if (!trace_path.empty()) {
    if (!obs::write_sink(trace_path, trace_format == "jsonl"
                                         ? jsonl_tracer.text()
                                         : text_tracer.text())) {
      return 2;
    }
  }
  if (!spans_path.empty()) {
    if (!obs::write_sink(spans_path, span_sink.to_chrome_json())) return 2;
  }
  if (report_path != "-" && trace_path != "-" && spans_path != "-") {
    if (!quiet) {
      Table table({"party", "input", "output", "role"});
      for (PartyId p = 0; p < n; ++p) {
        const bool corrupt = std::find(result.corrupt.begin(),
                                       result.corrupt.end(),
                                       p) != result.corrupt.end();
        const bool crashed = std::find(result.crashed.begin(),
                                       result.crashed.end(),
                                       p) != result.crashed.end();
        table.row({std::to_string(p), input_labels[p],
                   result.outputs[p].has_value()
                       ? vertex_label(*result.outputs[p])
                       : "(corrupt)",
                   corrupt ? "byzantine" : crashed ? "crashed" : "honest"});
      }
      std::cout << table.render();
    }
    const auto& totals = result.report.totals;
    std::cout << "rounds: " << result.rounds << "  frames: "
              << totals.frames_sent << "  bytes: " << totals.bytes_sent
              << "  dropped: " << totals.dropped
              << "  corrupted: " << totals.corrupted
              << "  stale: " << totals.stale_discarded
              << "  timeouts: " << result.report.timeouts_total << "\n"
              << "validity: " << (result.check.valid ? "ok" : "VIOLATED")
              << "  1-agreement: "
              << (result.check.one_agreement ? "ok" : "VIOLATED")
              << "  sim cross-check: "
              << (cfg.crosscheck
                      ? (result.sim_match ? "match" : "MISMATCH")
                      : "skipped")
              << "\n";
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
