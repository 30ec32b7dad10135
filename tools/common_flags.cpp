#include "common_flags.h"

namespace treeaa::tools {

namespace {

const std::string& next_value(const std::vector<std::string>& args,
                              std::size_t& i, const UsageFn& fail) {
  if (i + 1 >= args.size()) fail("missing value after " + args[i]);
  return args[++i];
}

}  // namespace

bool parse_common_flag(const std::vector<std::string>& args, std::size_t& i,
                       const CommonFlagSet& set, CommonFlags& flags,
                       const UsageFn& fail) {
  const std::string& arg = args[i];
  if (set.seed && arg == "--seed") {
    flags.seed = std::stoull(next_value(args, i, fail));
    flags.seed_set = true;
    return true;
  }
  if (set.threads && arg == "--threads") {
    flags.threads = std::stoul(next_value(args, i, fail));
    return true;
  }
  if (set.metrics && arg == "--metrics") {
    flags.metrics_path = next_value(args, i, fail);
    return true;
  }
  if (set.report_mode && arg == "--report") {
    if (next_value(args, i, fail) != "json") {
      fail("--report only supports 'json'");
    }
    flags.report_json = true;
    return true;
  }
  if (set.report_path && arg == "--report") {
    flags.report_path = next_value(args, i, fail);
    return true;
  }
  if (set.trace && arg == "--trace") {
    flags.trace_path = next_value(args, i, fail);
    return true;
  }
  if (set.trace && arg == "--trace-format") {
    flags.trace_format = next_value(args, i, fail);
    if (flags.trace_format != "text" && flags.trace_format != "jsonl") {
      fail("--trace-format must be text or jsonl");
    }
    return true;
  }
  if (set.spans && arg == "--spans") {
    flags.spans_path = next_value(args, i, fail);
    return true;
  }
  if (set.timings && arg == "--timings") {
    flags.timings = true;
    return true;
  }
  if (set.quiet && arg == "--quiet") {
    flags.quiet = true;
    return true;
  }
  if (set.bench_gate && (arg == "--out" || arg == "--metrics")) {
    flags.out_path = next_value(args, i, fail);
    return true;
  }
  if (set.bench_gate && arg == "--check-against") {
    flags.check_against = next_value(args, i, fail);
    return true;
  }
  if (set.bench_gate && arg == "--max-regression") {
    flags.max_regression_pct = std::stod(next_value(args, i, fail));
    return true;
  }
  if (set.bench_gate && arg == "--reps-scale") {
    flags.reps_scale = std::stod(next_value(args, i, fail));
    return true;
  }
  return false;
}

std::string common_flags_usage(const CommonFlagSet& set) {
  std::string out;
  const auto add = [&out](const char* fragment) {
    if (!out.empty()) out += " ";
    out += fragment;
  };
  if (set.seed) add("[--seed <s>]");
  if (set.threads) add("[--threads <k>]");
  if (set.metrics) add("[--metrics <file|->]");
  if (set.report_mode) add("[--report json]");
  if (set.report_path) add("[--report <file|->]");
  if (set.trace) add("[--trace <file|->] [--trace-format text|jsonl]");
  if (set.spans) add("[--spans <file|->]");
  if (set.timings) add("[--timings]");
  if (set.quiet) add("[--quiet]");
  if (set.bench_gate) {
    add("[--out <file|->] [--check-against <baseline.json>]");
    add("[--max-regression <pct>] [--reps-scale <x>]");
  }
  return out;
}

}  // namespace treeaa::tools
