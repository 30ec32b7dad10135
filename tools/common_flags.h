// The obs/run flags shared by every tool in this directory.
//
// Every tool historically re-spelled the same observability and run knobs
// (--metrics/--report/--trace/--trace-format/--spans/--timings/--threads/
// --seed/--quiet) with its own else-if chain. This header is the one
// parser: a tool declares which of the shared flags it accepts
// (CommonFlagSet), folds parse_common_flag() into its argument loop, and
// composes its usage text from common_flags_usage() — so help text and
// error strings ("missing value after --seed", "--report only supports
// 'json'", "--trace-format must be text or jsonl") are uniform across
// tools by construction.
//
// Tool-specific flags stay in the tool; only the shared vocabulary lives
// here. The two --report spellings (a mode for treeaa_cli, a file path for
// the server/report tools) are both supported — a tool enables exactly one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace treeaa::tools {

/// Which shared flags a tool accepts. Enable report_mode or report_path,
/// never both.
struct CommonFlagSet {
  bool seed = false;         // --seed <s>
  bool threads = false;      // --threads <k>
  bool metrics = false;      // --metrics <file|->
  bool report_mode = false;  // --report json
  bool report_path = false;  // --report <file|->
  bool trace = false;        // --trace <file|-> and --trace-format
  bool spans = false;        // --spans <file|->
  bool timings = false;      // --timings
  bool quiet = false;        // --quiet
};

/// Parsed values, defaulted exactly as the tools always defaulted them.
struct CommonFlags {
  std::uint64_t seed = 1;
  /// True once --seed appeared (tools with an optional override need to
  /// distinguish "default 1" from "explicit 1").
  bool seed_set = false;
  std::size_t threads = 1;
  std::string metrics_path;
  bool report_json = false;
  std::string report_path;
  std::string trace_path;
  std::string trace_format = "text";
  std::string spans_path;
  bool timings = false;
  bool quiet = false;
};

/// The tool's usage() — prints and exits, never returns.
using UsageFn = std::function<void(const std::string&)>;

/// Tries to consume args[i] (and its value, advancing i) as one of the
/// enabled shared flags. Returns true when consumed; false when args[i] is
/// not a shared flag (the tool's chain continues). Malformed values call
/// `fail` with the historical message; --seed and --threads take a whole
/// non-negative decimal integer that fits its field, nothing else.
bool parse_common_flag(const std::vector<std::string>& args, std::size_t& i,
                       const CommonFlagSet& set, CommonFlags& flags,
                       const UsageFn& fail);

/// Reads `text`, the value of `flag`, as a whole non-negative decimal
/// integer. A sign, any other stray character or an overflow calls `fail`
/// with "<flag> expects a non-negative integer". The shared --seed and
/// --threads go through it, and so does every tool's own numeric flag.
std::uint64_t parse_unsigned(const std::string& flag, const std::string& text,
                             const UsageFn& fail);

/// The usage-line fragment for the enabled flags, in canonical order:
/// "[--seed <s>] [--threads <k>] [--metrics <file|->] ...". Empty set,
/// empty string.
[[nodiscard]] std::string common_flags_usage(const CommonFlagSet& set);

}  // namespace treeaa::tools
