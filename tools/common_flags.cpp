#include "common_flags.h"

#include <charconv>

namespace treeaa::tools {

namespace {

const std::string& next_value(const std::vector<std::string>& args,
                              std::size_t& i, const UsageFn& fail) {
  if (i + 1 >= args.size()) fail("missing value after " + args[i]);
  return args[++i];
}

/// Reads the value after flag args[i] through parse_unsigned.
std::uint64_t next_unsigned(const std::vector<std::string>& args,
                            std::size_t& i, const UsageFn& fail) {
  const std::string& flag = args[i];
  return parse_unsigned(flag, next_value(args, i, fail), fail);
}

}  // namespace

std::uint64_t parse_unsigned(const std::string& flag, const std::string& text,
                             const UsageFn& fail) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    fail(flag + " expects a non-negative integer");
  }
  return value;
}

bool parse_common_flag(const std::vector<std::string>& args, std::size_t& i,
                       const CommonFlagSet& set, CommonFlags& flags,
                       const UsageFn& fail) {
  const std::string& arg = args[i];
  if (set.seed && arg == "--seed") {
    flags.seed = next_unsigned(args, i, fail);
    flags.seed_set = true;
    return true;
  }
  if (set.threads && arg == "--threads") {
    flags.threads = next_unsigned(args, i, fail);
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
  return out;
}

}  // namespace treeaa::tools
