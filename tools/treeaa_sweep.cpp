// treeaa_sweep — run a declarative experiment sweep (docs/SWEEPS.md).
//
//   treeaa_sweep --spec <file|-> [--threads N] [--run-threads K]
//                [--out <file|->] [--full] [--timings]
//                [--trace <file|->] [--trace-format text|jsonl]
//                [--seed S] [--quiet]
//                [--expand-only]
//
// Reads a sweep spec (JSON), expands it into its flat cell grid, executes
// every cell on a leased perf::WorkerPool, and writes the aggregated
// "treeaa.sweep_report/1" document to --out (default: the TREEAA_METRICS
// environment variable, else stdout). The report is byte-identical for any
// --threads value — determinism comes from per-cell RNG streams forked from
// the sweep seed by cell index, never from scheduling — unless --timings
// adds the wall-clock section.
//
//   --threads 0     use all hardware threads
//   --run-threads K most worker lanes inside each cell's engine (default
//                   1); an engine takes one lane per eight parties at most.
//                   The thread budget is shared: --threads is the total,
//                   and cells run on threads/L workers, L the widest
//                   engine's lanes
//   --full          run with per-cell run reports and embed them in rows
//   --trace F       record every cell's engine transcript (treeaa_cli's
//                   --trace vocabulary) into F, cells in index order, each
//                   preceded by a cell header line. Transcripts carry no
//                   wall-clock data, so the file is byte-identical for any
//                   --threads value.
//   --seed S        override the spec's seed
//   --expand-only   print the cell count and exit without running
//   --quiet         suppress the human summary on stderr
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common_flags.h"
#include "exp/report.h"
#include "exp/spec.h"
#include "exp/sweep.h"
#include "obs/sink.h"

namespace {

using namespace treeaa;

const tools::CommonFlagSet kSweepFlags = {.seed = true,
                                          .threads = true,
                                          .trace = true,
                                          .timings = true,
                                          .quiet = true};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage:\n"
               "  treeaa_sweep --spec <file|-> [--out <file|->] "
               "[--run-threads K]\n"
               "               [--full] [--expand-only]\n"
               "               "
            << tools::common_flags_usage(kSweepFlags) << "\n";
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

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);

  std::string spec_path;
  std::string out_path;
  exp::SweepOptions sweep_opts;
  exp::ReportOptions report_opts;
  bool expand_only = false;
  tools::CommonFlags flags;
  const tools::UsageFn fail = [](const std::string& m) { usage(m); };

  for (std::size_t i = 0; i < args.size(); ++i) {
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage("missing value after " + args[i]);
      return args[++i];
    };
    if (args[i] == "--spec") {
      spec_path = next();
    } else if (args[i] == "--out") {
      out_path = next();
    } else if (args[i] == "--run-threads") {
      sweep_opts.run_threads =
          tools::parse_unsigned("--run-threads", next(), fail);
    } else if (args[i] == "--full") {
      sweep_opts.collect_reports = true;
      report_opts.include_cell_reports = true;
    } else if (args[i] == "--expand-only") {
      expand_only = true;
    } else if (tools::parse_common_flag(args, i, kSweepFlags, flags, fail)) {
      // consumed
    } else {
      usage("unknown option '" + args[i] + "'");
    }
  }
  sweep_opts.threads = flags.threads;
  report_opts.include_timings = flags.timings;
  const std::string& trace_path = flags.trace_path;
  const std::string& trace_format = flags.trace_format;
  const bool quiet = flags.quiet;
  if (spec_path.empty()) usage("--spec is required");
  out_path = obs::resolve_metrics_path(std::move(out_path));
  if (out_path.empty()) out_path.push_back('-');

  try {
    exp::SweepSpec spec = exp::spec_from_json(read_all(spec_path));
    if (flags.seed_set) spec.seed = flags.seed;
    const std::vector<exp::Cell> cells = exp::expand(spec);
    if (expand_only) {
      std::cout << cells.size() << "\n";
      return 0;
    }

    if (!trace_path.empty()) sweep_opts.trace_format = trace_format;

    const exp::SweepResult result = exp::run_sweep(spec, cells, sweep_opts);
    const std::string json =
        exp::sweep_report_json(spec, result, report_opts);
    if (!obs::write_sink(out_path, json)) return 2;
    if (!trace_path.empty()) {
      // One document, cells in index order. Headers follow the format:
      // a "# cell I" comment line for text, a flat {"ev":"cell",...} event
      // line for jsonl — so a jsonl file stays line-parseable throughout.
      std::string traces;
      for (const exp::CellResult& r : result.cells) {
        if (trace_format == "jsonl") {
          traces += "{\"ev\":\"cell\",\"cell\":" +
                    std::to_string(r.cell.index) + "}\n";
        } else {
          traces += "# cell " + std::to_string(r.cell.index) + "\n";
        }
        traces += r.trace;
      }
      if (!obs::write_sink(trace_path, traces)) return 2;
    }

    std::size_t failures = 0;
    std::size_t aa_violations = 0;
    for (const exp::CellResult& r : result.cells) {
      if (!r.ok) {
        ++failures;
      } else if (!r.aa_ok()) {
        ++aa_violations;
      }
    }
    if (!quiet) {
      std::cerr << "sweep '" << spec.name << "': " << result.cells.size()
                << " cells on " << result.timings.threads << " thread(s) in "
                << result.timings.wall_ms << " ms; " << failures
                << " failures, " << aa_violations << " AA violations\n";
    }
    return failures == 0 && aa_violations == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
