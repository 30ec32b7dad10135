// treeaa_hunt — coverage-guided adversary search.
//
// usage:
//   treeaa_hunt --spec <file|-> [--objective <name>] [--population N]
//               [--generations N] [--elites N] [--corpus-max N]
//               [--out <file|->] [--corpus <file|->] [--no-crashes]
//               [--seed <s>] [--threads <k>] [--quiet]
//   treeaa_hunt --replay <file|->
//
// Search mode: loads a hunt spec ({"scenario": {...}, "search": {...}},
// docs/HUNT.md), evolves adversaries against the pinned scenario, writes
// the `treeaa.hunt_report/1` document to --out (default stdout) and the
// worst-case corpus (`treeaa.hunt_corpus/1` JSONL) to --corpus. CLI flags
// override the spec file's "search" values. Exit 0 on a completed search.
//
// Replay mode: re-runs every corpus line and compares against the recorded
// outcome. Exit 0 when every line reproduces exactly, 1 on any mismatch —
// the determinism gate CI runs over hunt artifacts.
//
// Everything is deterministic: the report and corpus depend only on the
// spec and the flags; --threads never changes a byte of either.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common_flags.h"
#include "hunt/report.h"
#include "hunt/scenario.h"
#include "hunt/search.h"
#include "obs/json.h"
#include "obs/sink.h"

namespace {

using namespace treeaa;

const tools::CommonFlagSet kHuntFlags = {
    .seed = true, .threads = true, .quiet = true};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage:\n"
               "  treeaa_hunt --spec <file|-> [--objective "
               "rounds_to_eps|final_spread|ledger_margin]\n"
               "              [--population N] [--generations N] "
               "[--elites N] [--corpus-max N]\n"
               "              [--out <file|->] [--corpus <file|->] "
               "[--no-crashes]\n"
               "              "
            << tools::common_flags_usage(kHuntFlags)
            << "\n"
               "  treeaa_hunt --replay <file|->\n";
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

int replay(const std::string& path, bool quiet) {
  const std::string text = read_all(path);
  std::size_t line_no = 0;
  std::size_t mismatches = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string error;
    const auto entry = hunt::corpus_entry_from_json(line, &error);
    if (!entry.has_value()) {
      std::cerr << "line " << line_no << ": " << error << "\n";
      ++mismatches;
      continue;
    }
    const std::string verdict = hunt::replay_corpus_entry(*entry);
    if (!verdict.empty()) {
      std::cerr << "line " << line_no << ": " << verdict << "\n";
      ++mismatches;
    } else if (!quiet) {
      std::cerr << "line " << line_no << ": ok\n";
    }
  }
  if (line_no == 0) usage("corpus '" + path + "' is empty");
  if (!quiet) {
    std::cerr << "replayed " << line_no << " line(s), " << mismatches
              << " mismatch(es)\n";
  }
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);

  std::string spec_path;
  std::string replay_path;
  std::string out_path;
  std::string corpus_path;
  hunt::HuntOptions cli;          // CLI-level overrides
  bool objective_set = false, population_set = false;
  bool generations_set = false, elites_set = false, corpus_max_set = false;
  bool no_crashes = false;
  tools::CommonFlags common;
  const tools::UsageFn fail = [](const std::string& m) { usage(m); };

  for (std::size_t i = 0; i < args.size(); ++i) {
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage("missing value after " + args[i]);
      return args[++i];
    };
    if (args[i] == "--spec") {
      spec_path = next();
    } else if (args[i] == "--replay") {
      replay_path = next();
    } else if (args[i] == "--out") {
      out_path = next();
    } else if (args[i] == "--corpus") {
      corpus_path = next();
    } else if (args[i] == "--objective") {
      const auto o = hunt::objective_from_name(next());
      if (!o.has_value()) usage("unknown objective '" + args[i] + "'");
      cli.objective = *o;
      objective_set = true;
    } else if (args[i] == "--population") {
      cli.population = tools::parse_unsigned("--population", next(), fail);
      population_set = true;
    } else if (args[i] == "--generations") {
      cli.generations = tools::parse_unsigned("--generations", next(), fail);
      generations_set = true;
    } else if (args[i] == "--elites") {
      cli.elites = tools::parse_unsigned("--elites", next(), fail);
      elites_set = true;
    } else if (args[i] == "--corpus-max") {
      cli.corpus_max = tools::parse_unsigned("--corpus-max", next(), fail);
      corpus_max_set = true;
    } else if (args[i] == "--no-crashes") {
      no_crashes = true;
    } else if (tools::parse_common_flag(args, i, kHuntFlags, common, fail)) {
      // consumed
    } else {
      usage("unknown option '" + args[i] + "'");
    }
  }
  if (!replay_path.empty()) {
    if (!spec_path.empty()) usage("--replay does not take --spec");
    return replay(replay_path, common.quiet);
  }
  if (spec_path.empty()) usage("--spec is required");
  out_path = obs::resolve_metrics_path(std::move(out_path));
  if (out_path.empty()) out_path.push_back('-');

  try {
    hunt::Scenario scenario;
    hunt::HuntOptions options;
    std::string error;
    if (!hunt::load_hunt_spec(read_all(spec_path), &scenario, &options,
                              &error)) {
      usage(error);
    }
    if (objective_set) options.objective = cli.objective;
    if (population_set) options.population = cli.population;
    if (generations_set) options.generations = cli.generations;
    if (elites_set) options.elites = cli.elites;
    if (corpus_max_set) options.corpus_max = cli.corpus_max;
    if (no_crashes) options.allow_crashes = false;
    if (common.seed_set) options.seed = common.seed;
    options.threads = common.threads;

    const hunt::MaterializedScenario m = hunt::materialize(scenario);
    const hunt::HuntResult result = hunt::run_hunt(m, options);

    if (!obs::write_sink(out_path,
                         hunt::hunt_report_json(m, options, result))) {
      return 2;
    }
    if (!corpus_path.empty() &&
        !obs::write_sink(corpus_path,
                         hunt::corpus_jsonl(m, options, result))) {
      return 2;
    }

    if (!common.quiet) {
      std::cerr << "hunt '" << scenario.name << "': " << result.evaluations
                << " evaluations (" << result.duplicates << " deduped), "
                << result.coverage.size() << " coverage buckets, corpus "
                << result.corpus.size() << "\n";
      for (const auto& [name, score] : result.baselines) {
        std::cerr << "  baseline " << name << ": "
                  << obs::json_number(score) << "\n";
      }
      if (result.best.eval.ok) {
        std::cerr << "  best " << obs::json_number(result.best.score)
                  << " (generation " << result.best.generation
                  << "): " << result.best.spec_json << "\n";
      } else {
        std::cerr << "  no candidate evaluated successfully\n";
      }
    }
    return result.best.eval.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
