// treeaa_cli — command-line front end for the library.
//
//   treeaa_cli gen <family> <n> [seed]         generate a tree (text format)
//   treeaa_cli info <file|->                   tree statistics
//   treeaa_cli dot <file|-> [label...]         Graphviz export (highlights)
//   treeaa_cli bounds <D> <n> <t>              round bounds for a diameter
//   treeaa_cli run <file|-> --t <t> --inputs <l1,l2,...>
//              [--adversary none|silent|fuzz|split]
//              [--adversary-spec <file|->] [--engine bdh|classic]
//              [--seed <s>] [--threads <k>] [--quiet]
//              [--metrics <file|->] [--report json]
//              [--trace <file|->] [--trace-format text|jsonl]
//              [--spans <file|->] [--timings]
//
// `--adversary-spec` takes a `treeaa.adversary_spec/1` JSON file (docs/
// API.md) and runs exactly that point in adversary space — no RNG draw, so
// a hunt corpus entry replays byte-for-byte. The shared flags after
// --engine are parsed by tools/common_flags.h, the one parser every tool
// in this directory folds into its argument loop.
//   treeaa_cli gen-graph <family> <n> [seed]   generate a block graph
//   treeaa_cli info-graph <file|->             block decomposition stats
//   treeaa_cli dot-graph <file|->              Graphviz export (blocks)
//   treeaa_cli run-block <file|-> ...          BlockAA run (same flags as
//                                              `run`; see usage)
//
// `-` reads the tree from stdin, so commands compose:
//   treeaa_cli gen spider 40 | treeaa_cli run - --t 2 --inputs v00,v11,...
//   treeaa_cli gen-graph cactus 30 |
//       treeaa_cli run-block - --t 1 --inputs v000,v007,v013,v021
//
// Observability (docs/OBSERVABILITY.md): --metrics writes the machine-
// readable run report ("treeaa.run_report/1") to a file (falling back to
// the TREEAA_METRICS environment variable when the flag is absent — the
// same contract as the bench binaries), --report json
// replaces the human summary with the same JSON on stdout, --trace records
// the engine transcript (text or JSONL, "treeaa.trace/1"), --spans records
// the causal timeline as Chrome trace-event JSON (open in Perfetto).
// Reports are byte-reproducible across identical runs unless --timings adds
// the wall-clock section; span files carry wall-clock timestamps and are
// never reproducible, but attaching them changes no other output byte.
// --quiet only suppresses the human table; it never affects
// --metrics/--trace/--spans. When JSON or a trace targets stdout
// (--metrics -, --trace -, --spans -, --report json) the human table and
// summary are suppressed entirely so stdout stays machine-parseable.
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bounds/fekete.h"
#include "common/table.h"
#include "common_flags.h"
#include "core/tree_aa.h"
#include "graphs/block_aa.h"
#include "graphs/block_index.h"
#include "graphs/generators.h"
#include "graphs/serialization.h"
#include "harness/adversary_spec.h"
#include "harness/registry.h"
#include "obs/probe.h"
#include "obs/report.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "perf/tree_index.h"
#include "realaa/rounds.h"
#include "sim/strategies.h"
#include "sim/trace.h"
#include "trees/generators.h"
#include "trees/metrics.h"
#include "trees/serialization.h"

namespace {

using namespace treeaa;

// The shared obs/run flag vocabularies (tools/common_flags.h): the full set
// for the synchronous run commands, the report-only subset for run-async.
const tools::CommonFlagSet kRunFlags = {.seed = true,
                                        .threads = true,
                                        .metrics = true,
                                        .report_mode = true,
                                        .trace = true,
                                        .spans = true,
                                        .timings = true,
                                        .quiet = true};
const tools::CommonFlagSet kRunAsyncFlags = {.seed = true,
                                             .metrics = true,
                                             .report_mode = true,
                                             .timings = true,
                                             .quiet = true};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  treeaa_cli gen <path|star|binary|caterpillar|spider|random> <n> "
      "[seed]\n"
      "  treeaa_cli info <file|->\n"
      "  treeaa_cli dot <file|-> [label...]\n"
      "  treeaa_cli bounds <D> <n> <t>\n"
      "  treeaa_cli run <file|-> --t <t> --inputs <l1,l2,...>\n"
      "             [--adversary none|silent|fuzz|split] "
      "[--adversary-spec <file|->] [--engine bdh|classic]\n"
      "             " << tools::common_flags_usage(kRunFlags) << "\n"
      "  treeaa_cli run-async <file|-> --t <t> --inputs <l1,l2,...>\n"
      "             [--scheduler fifo|lifo|random] [--silent <k>]\n"
      "             " << tools::common_flags_usage(kRunAsyncFlags) << "\n"
      "  treeaa_cli gen-graph <tree|clique_chain|block_random|cactus> <n> "
      "[seed]\n"
      "  treeaa_cli info-graph <file|->\n"
      "  treeaa_cli dot-graph <file|->\n"
      "  treeaa_cli run-block <file|-> --t <t> --inputs <l1,l2,...>\n"
      "             [--adversary none|silent|fuzz|split] "
      "[--adversary-spec <file|->] [--engine bdh|classic]\n"
      "             " << tools::common_flags_usage(kRunFlags) << "\n";
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

void write_output(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::cout << content;
    return;
  }
  std::ofstream out(path);
  if (!out) usage("cannot write '" + path + "'");
  out << content;
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

/// <n> and the optional [seed] of `gen` and `gen-graph`.
std::pair<std::size_t, std::uint64_t> size_and_seed(
    const std::vector<std::string>& args) {
  const tools::UsageFn fail = [](const std::string& m) { usage(m); };
  return {tools::parse_unsigned("<n>", args[1], fail),
          args.size() == 3 ? tools::parse_unsigned("<seed>", args[2], fail)
                           : 1};
}

int cmd_gen(const std::vector<std::string>& args) {
  if (args.size() < 2 || args.size() > 3) usage("gen needs <family> <n>");
  const auto [n, seed] = size_and_seed(args);
  Rng rng(seed);
  for (const TreeFamily f : all_tree_families()) {
    if (args[0] == tree_family_name(f)) {
      std::cout << tree_to_text(make_family_tree(f, n, rng));
      return 0;
    }
  }
  usage("unknown family '" + args[0] + "'");
}

int cmd_info(const std::vector<std::string>& args) {
  if (args.size() != 1) usage("info needs <file|->");
  const auto tree = tree_from_text(read_all(args[0]));
  const auto [a, b] = tree.diameter_endpoints();
  std::cout << "vertices:  " << tree.n() << "\n"
            << "diameter:  " << tree.diameter() << " (" << tree.label(a)
            << " .. " << tree.label(b) << ")\n"
            << "root:      " << tree.label(tree.root())
            << " (lowest label)\n"
            << "euler len: " << 2 * tree.n() - 1 << "\n";
  std::cout << "center:   ";
  for (const VertexId c : tree_center(tree)) {
    std::cout << " " << tree.label(c);
  }
  std::cout << "\ncentroid: ";
  for (const VertexId c : tree_centroid(tree)) {
    std::cout << " " << tree.label(c);
  }
  std::cout << "\n";
  Table rounds({"n", "t", "TreeAA rounds", "lower bound"});
  for (std::size_t n : {4u, 7u, 16u, 31u}) {
    const std::size_t t = (n - 1) / 3;
    rounds.row({std::to_string(n), std::to_string(t),
                std::to_string(core::tree_aa_rounds(tree, n, t)),
                std::to_string(bounds::lower_bound_rounds(
                    static_cast<double>(tree.diameter()), n, t))});
  }
  std::cout << rounds.render();
  return 0;
}

int cmd_dot(const std::vector<std::string>& args) {
  if (args.empty()) usage("dot needs <file|->");
  const auto tree = tree_from_text(read_all(args[0]));
  std::vector<VertexId> highlight;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const auto v = tree.find(args[i]);
    if (!v.has_value()) usage("no vertex labeled '" + args[i] + "'");
    highlight.push_back(*v);
  }
  std::cout << tree_to_dot(tree, highlight);
  return 0;
}

int cmd_bounds(const std::vector<std::string>& args) {
  if (args.size() != 3) usage("bounds needs <D> <n> <t>");
  const tools::UsageFn fail = [](const std::string& m) { usage(m); };
  const double d = tools::parse_positive_double("<D>", args[0], fail);
  const std::size_t n = tools::parse_unsigned("<n>", args[1], fail);
  const std::size_t t = tools::parse_unsigned("<t>", args[2], fail);
  if (n == 0) usage("<n> must be at least 1");
  if (!fault_bound_holds(n, t)) usage("need n > 3t");
  std::cout << "Fekete/Theorem-2 lower bound: "
            << bounds::lower_bound_rounds(d, n, t) << " rounds\n"
            << "Theorem-2 closed form:        "
            << fmt_double(bounds::theorem2_closed_form(d, n, t)) << "\n"
            << "Theorem-3 RealAA bound:       "
            << realaa::theorem3_round_bound(d, 1.0) << " rounds\n";
  return 0;
}

/// `run` (TreeAA on a tree) and `run-block` (BlockAA on a block graph):
/// the same flags, one registry run and the registry's verdict. Only
/// reading the input space and resolving and printing labels differ.
int cmd_run(const std::vector<std::string>& args,
            harness::ProtocolKind protocol) {
  const bool block = protocol == harness::ProtocolKind::kBlockAA;
  if (args.empty()) {
    usage(std::string(block ? "run-block" : "run") + " needs <file|->");
  }
  std::optional<LabeledTree> tree;
  std::optional<graphs::BlockIndex> index;
  if (block) {
    index.emplace(graphs::graph_from_text(read_all(args[0])));
  } else {
    tree.emplace(tree_from_text(read_all(args[0])));
  }
  const auto find = [&](const std::string& label) {
    return block ? index->graph().find(label) : tree->find(label);
  };
  const auto label_of = [&](VertexId v) -> const std::string& {
    return block ? index->graph().label(v) : tree->label(v);
  };

  std::size_t t = 0;
  std::vector<std::string> input_labels;
  std::string adversary = "none";
  bool adversary_set = false;
  std::string adversary_spec_path;
  std::string engine = "bdh";
  tools::CommonFlags flags;
  const tools::UsageFn fail = [](const std::string& m) { usage(m); };
  for (std::size_t i = 1; i < args.size(); ++i) {
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage("missing value after " + args[i]);
      return args[++i];
    };
    if (args[i] == "--t") {
      t = tools::parse_unsigned("--t", next(), fail);
    } else if (args[i] == "--inputs") {
      input_labels = split_csv(next());
    } else if (args[i] == "--adversary") {
      adversary = next();
      adversary_set = true;
    } else if (args[i] == "--adversary-spec") {
      adversary_spec_path = next();
    } else if (args[i] == "--engine") {
      engine = next();
    } else if (tools::parse_common_flag(args, i, kRunFlags, flags, fail)) {
      // consumed
    } else {
      usage("unknown option '" + args[i] + "'");
    }
  }
  if (input_labels.empty()) usage("--inputs is required");
  flags.metrics_path = obs::resolve_metrics_path(std::move(flags.metrics_path));
  const std::size_t n = input_labels.size();
  // The fault bound via the registry's typed validator; the CLI keeps its
  // historical one-liner for the common case.
  if (const auto issue = harness::validate_axes(protocol, n, t)) {
    usage(issue->error == harness::SpecError::kFaultBound ? "need n > 3t"
                                                          : issue->detail);
  }

  harness::RunSpec spec;
  spec.protocol = protocol;
  spec.n = n;
  spec.t = t;
  // --threads only changes wall-clock: outputs, reports and traces are
  // byte-identical to the serial engine for any value.
  spec.threads = flags.threads;
  spec.tree = tree.has_value() ? &*tree : nullptr;
  std::optional<perf::TreeIndex> tree_index;
  if (tree.has_value()) spec.tree_index = &tree_index.emplace(*tree);
  spec.block_index = index.has_value() ? &*index : nullptr;
  for (const auto& label : input_labels) {
    const auto v = find(label);
    if (!v.has_value()) usage("no vertex labeled '" + label + "'");
    spec.vertex_inputs.push_back(*v);
  }
  if (engine == "classic") {
    spec.engine = core::RealEngineKind::kClassicHalving;
  } else if (engine != "bdh") {
    usage("unknown engine '" + engine + "'");
  }

  harness::AdversarySpec adv;
  std::string adversary_label = adversary;
  if (!adversary_spec_path.empty()) {
    // Explicit point in adversary space (docs/API.md): the spec carries the
    // victims and parameters verbatim, so the run is a pure function of the
    // file — no RNG draw. This is how hunt corpus entries replay.
    if (adversary_set) {
      usage("--adversary-spec cannot be combined with --adversary");
    }
    std::string error;
    auto parsed = harness::adversary_spec_from_json(
        read_all(adversary_spec_path), &error);
    if (!parsed.has_value()) usage("--adversary-spec: " + error);
    if (const auto issue =
            harness::validate_axes(protocol, n, t, parsed->kind)) {
      usage(issue->detail);
    }
    adv = std::move(*parsed);
    adversary_label = harness::adversary_name(adv.kind);
  } else {
    // Resolve the adversary through the registry. split1 parses but does not
    // apply here, so it stays "unknown" exactly as before.
    const auto adv_kind = harness::adversary_from_name(adversary);
    if (!adv_kind.has_value() ||
        !harness::adversary_applies(protocol, *adv_kind)) {
      usage("unknown adversary '" + adversary + "'");
    }
    Rng rng(flags.seed);
    adv.kind = *adv_kind;
    // Historical draw order: victims come off the seed stream unconditionally
    // (even for --adversary none), and fuzz payloads reuse the CLI seed.
    adv.victims = sim::random_parties(n, t, rng);
    adv.fuzz_seed = flags.seed;
  }
  // A split attack aims at the registry's split target: PathsFinder's RealAA
  // over the tree, or over the agreement tree the inner TreeAA runs on.
  adv.split_config = *harness::split_target(spec);
  spec.adversary = harness::make_adversary(adv);

  obs::RunReport report;
  sim::RecordingTracer text_tracer;
  obs::JsonlTracer jsonl_tracer;
  obs::SpanSink span_sink;
  obs::Hooks hooks;
  if (!flags.metrics_path.empty() || flags.report_json) {
    hooks.report = &report;
  }
  if (!flags.trace_path.empty()) {
    hooks.tracer = flags.trace_format == "jsonl"
                       ? static_cast<sim::Tracer*>(&jsonl_tracer)
                       : static_cast<sim::Tracer*>(&text_tracer);
  }
  if (!flags.spans_path.empty()) hooks.spans = &span_sink;
  if (hooks.report != nullptr) {
    report.add_param("adversary", adversary_label);
    report.add_param("seed", flags.seed);
  }
  spec.hooks = hooks.active() ? &hooks : nullptr;

  const harness::RunOutcome result = harness::run_protocol(spec);
  const harness::Verdict verdict = harness::check_outcome(spec, result);

  if (hooks.report != nullptr) {
    report.add_outcome("validity", verdict.valid);
    report.add_outcome("one_agreement", verdict.agreement);
    report.add_outcome("max_pairwise_distance",
                       static_cast<std::uint64_t>(verdict.spread));
    const std::string json = report.to_json(flags.timings) + "\n";
    if (!obs::write_sink(flags.metrics_path, json)) return 2;
    if (flags.report_json && flags.metrics_path != "-") std::cout << json;
  }
  if (!flags.trace_path.empty()) {
    write_output(flags.trace_path, flags.trace_format == "jsonl"
                                       ? jsonl_tracer.text()
                                       : text_tracer.text());
  }
  if (!flags.spans_path.empty()) {
    write_output(flags.spans_path, span_sink.to_chrome_json());
  }

  // Keep stdout machine-clean: the human table and summary are skipped
  // whenever JSON or a trace is being streamed to stdout.
  if (!flags.report_json && flags.metrics_path != "-" &&
      flags.trace_path != "-" && flags.spans_path != "-") {
    if (!flags.quiet) {
      Table table({"party", "input", "output"});
      for (PartyId p = 0; p < n; ++p) {
        const auto& out = result.vertex_outputs[p];
        table.row({std::to_string(p), input_labels[p],
                   out.has_value() ? label_of(*out) : "(corrupt)"});
      }
      std::cout << table.render();
    }
    std::cout << "rounds: " << result.rounds
              << "  messages: " << result.traffic.total_messages()
              << "  bytes: " << result.traffic.total_bytes()
              << "  adversarial: " << result.traffic.adversary_messages()
              << " msgs / " << result.traffic.adversary_bytes() << " bytes\n"
              << "path split: " << (result.path_split ? "yes" : "no")
              << "  clamps: " << result.clamp_count
              << "  byzantine proven: " << result.max_detected_faulty << "\n"
              << "validity: " << (verdict.valid ? "ok" : "VIOLATED")
              << "  1-agreement: "
              << (verdict.agreement ? "ok" : "VIOLATED") << "\n";
  }
  return verdict.ok() ? 0 : 1;
}

int cmd_run_async(const std::vector<std::string>& args) {
  if (args.empty()) usage("run-async needs <file|->");
  const auto tree = tree_from_text(read_all(args[0]));

  std::size_t t = 0;
  std::size_t silent = 0;
  std::vector<std::string> input_labels;
  std::string scheduler = "random";
  tools::CommonFlags flags;
  const tools::UsageFn fail = [](const std::string& m) { usage(m); };
  for (std::size_t i = 1; i < args.size(); ++i) {
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage("missing value after " + args[i]);
      return args[++i];
    };
    if (args[i] == "--t") {
      t = tools::parse_unsigned("--t", next(), fail);
    } else if (args[i] == "--inputs") {
      input_labels = split_csv(next());
    } else if (args[i] == "--scheduler") {
      scheduler = next();
    } else if (args[i] == "--silent") {
      silent = tools::parse_unsigned("--silent", next(), fail);
    } else if (tools::parse_common_flag(args, i, kRunAsyncFlags, flags,
                                        fail)) {
      // consumed
    } else {
      usage("unknown option '" + args[i] + "'");
    }
  }
  if (input_labels.empty()) usage("--inputs is required");
  flags.metrics_path = obs::resolve_metrics_path(std::move(flags.metrics_path));
  const std::size_t n = input_labels.size();
  if (const auto issue = harness::validate_axes(
          harness::ProtocolKind::kAsyncTreeAA, n, t)) {
    usage(issue->error == harness::SpecError::kFaultBound ? "need n > 3t"
                                                          : issue->detail);
  }
  if (silent > t) usage("--silent must be <= t");

  harness::RunSpec spec;
  spec.protocol = harness::ProtocolKind::kAsyncTreeAA;
  spec.n = n;
  spec.t = t;
  spec.tree = &tree;
  for (const auto& label : input_labels) {
    const auto v = tree.find(label);
    if (!v.has_value()) usage("no vertex labeled '" + label + "'");
    spec.vertex_inputs.push_back(*v);
  }

  const auto sched = harness::scheduler_from_name(scheduler);
  if (!sched.has_value()) usage("unknown scheduler '" + scheduler + "'");

  Rng rng(flags.seed);
  spec.async_opts = {sim::random_parties(n, silent, rng), *sched, flags.seed};

  obs::RunReport report;
  obs::Hooks hooks;
  if (!flags.metrics_path.empty() || flags.report_json) {
    hooks.report = &report;
  }
  if (hooks.report != nullptr) report.add_param("scheduler", scheduler);
  spec.hooks = hooks.active() ? &hooks : nullptr;

  const harness::RunOutcome run = harness::run_protocol(spec);
  const harness::Verdict verdict = harness::check_outcome(spec, run);

  if (hooks.report != nullptr) {
    report.add_outcome("validity", verdict.valid);
    report.add_outcome("one_agreement", verdict.agreement);
    const std::string json = report.to_json(flags.timings) + "\n";
    if (!obs::write_sink(flags.metrics_path, json)) return 2;
    if (flags.report_json && flags.metrics_path != "-") std::cout << json;
  }

  if (!flags.report_json && flags.metrics_path != "-") {
    if (!flags.quiet) {
      Table table({"party", "input", "output"});
      for (PartyId p = 0; p < n; ++p) {
        const auto& out = run.vertex_outputs[p];
        table.row({std::to_string(p), input_labels[p],
                   out.has_value() ? tree.label(*out) : "(corrupt)"});
      }
      std::cout << table.render();
    }
    std::cout << "deliveries: " << run.deliveries
              << "  messages: " << run.messages << "\n"
              << "validity: " << (verdict.valid ? "ok" : "VIOLATED")
              << "  1-agreement: "
              << (verdict.agreement ? "ok" : "VIOLATED") << "\n";
  }
  return verdict.ok() ? 0 : 1;
}

int cmd_gen_graph(const std::vector<std::string>& args) {
  if (args.size() < 2 || args.size() > 3) usage("gen-graph needs <family> <n>");
  const auto [n, seed] = size_and_seed(args);
  Rng rng(seed);
  for (const graphs::GraphFamily f : graphs::all_graph_families()) {
    if (args[0] == graphs::graph_family_name(f)) {
      std::cout << graphs::graph_to_text(graphs::make_family_graph(f, n, rng));
      return 0;
    }
  }
  usage("unknown graph family '" + args[0] + "'");
}

int cmd_info_graph(const std::vector<std::string>& args) {
  if (args.size() != 1) usage("info-graph needs <file|->");
  const auto g = graphs::graph_from_text(read_all(args[0]));
  const graphs::BlockIndex index(g);
  const auto& d = index.decomposition();
  std::size_t edges = 0, cliques = 0, cycles = 0;
  for (const auto& b : d.blocks()) {
    if (b.shape == graphs::BlockShape::kEdge) ++edges;
    if (b.shape == graphs::BlockShape::kClique) ++cliques;
    if (b.shape == graphs::BlockShape::kCycle) ++cycles;
  }
  const auto [a, b] = index.diameter_endpoints();
  const auto& at = index.agreement_tree();
  std::cout << "vertices:       " << g.n() << "\n"
            << "edges:          " << g.edge_count() << "\n"
            << "diameter:       " << index.diameter() << " (" << g.label(a)
            << " .. " << g.label(b) << ")\n"
            << "blocks:         " << d.blocks().size() << " (" << edges
            << " edge, " << cliques << " clique, " << cycles << " cycle)\n"
            << "cut vertices:   " << d.cut_count() << "\n"
            << "family:         "
            << (g.is_tree()           ? "tree"
                : index.all_cliques() ? "block graph (all cliques)"
                                      : "cactus (has cycle blocks)")
            << "\n"
            << "agreement tree: " << at.n() << " nodes, diameter "
            << at.diameter() << "\n";
  Table rounds({"n", "t", "BlockAA rounds", "lower bound"});
  for (std::size_t pn : {4u, 7u, 16u, 31u}) {
    const std::size_t pt = (pn - 1) / 3;
    rounds.row({std::to_string(pn), std::to_string(pt),
                std::to_string(graphs::block_aa_rounds(index, pn, pt)),
                std::to_string(bounds::lower_bound_rounds(
                    static_cast<double>(index.diameter()), pn, pt))});
  }
  std::cout << rounds.render();
  return 0;
}

int cmd_dot_graph(const std::vector<std::string>& args) {
  if (args.size() != 1) usage("dot-graph needs <file|->");
  const auto g = graphs::graph_from_text(read_all(args[0]));
  const graphs::BlockDecomposition d(g);
  std::cout << graphs::graph_to_dot(g, d);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) usage();
  const std::string cmd = args[0];
  args.erase(args.begin());
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "dot") return cmd_dot(args);
    if (cmd == "bounds") return cmd_bounds(args);
    if (cmd == "run") return cmd_run(args, harness::ProtocolKind::kTreeAA);
    if (cmd == "run-async") return cmd_run_async(args);
    if (cmd == "gen-graph") return cmd_gen_graph(args);
    if (cmd == "info-graph") return cmd_info_graph(args);
    if (cmd == "dot-graph") return cmd_dot_graph(args);
    if (cmd == "run-block") {
      return cmd_run(args, harness::ProtocolKind::kBlockAA);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage("unknown command '" + cmd + "'");
}
