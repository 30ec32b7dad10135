// The paper's reproduction as a gate. EXPERIMENTS.md E1–E3 and E5–E9 are
// the stdout of eight deterministic benches; this test pins each one as an
// FNV-1a 64 hash plus the exit code, and pins `bench_soak --threads 4` to
// the default run's hash. Independently of the hashes it parses every
// table by header name and checks the claim columns against the theorem
// they reproduce, so re-recording a hash cannot hide a broken claim. Last,
// every line of every fenced block in EXPERIMENTS.md must be a line the
// bench named in that block's section prints (trailing padding aside), so
// the document cannot drift from the binaries.
//
// Each bench runs once per test. A change that alters a bench's bytes on
// purpose re-records its hash here and the quoted lines in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "support/golden.h"

namespace {

using treeaa::test_support::fnv1a64;
using treeaa::test_support::run_shell;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::string rtrim(std::string s) {
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "" : rtrim(s.substr(first));
}

// --- Tables, parsed from the human rendering --------------------------------

/// One printed table. common/table.cpp pads every cell to its column width
/// and separates columns by two spaces, so a header name (which holds at
/// most single spaces) starts each column, and every row is exactly as
/// long as the dashed rule under the header.
class BenchTable {
 public:
  BenchTable() = default;
  BenchTable(const std::string& header, const std::vector<std::string>& rows) {
    for (std::size_t p = 0; p < header.size(); ++p) {
      const bool starts = header[p] != ' ' &&
                          (p == 0 || (p >= 2 && header.compare(p - 2, 2,
                                                               "  ") == 0));
      if (starts) starts_.push_back(p);
    }
    for (std::size_t c = 0; c < starts_.size(); ++c) {
      columns_.push_back(slice(header, c));
    }
    for (const std::string& row : rows) {
      std::vector<std::string> cells;
      for (std::size_t c = 0; c < starts_.size(); ++c) {
        cells.push_back(slice(row, c));
      }
      rows_.push_back(std::move(cells));
    }
  }

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& columns() const {
    return columns_;
  }

  /// The cell of `row` under `column`; a missing column fails the test.
  [[nodiscard]] std::string cell(std::size_t row,
                                 const std::string& column) const {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (columns_[c] == column) return rows_[row][c];
    }
    ADD_FAILURE() << "no column '" << column << "'";
    return "";
  }

  /// cell() read as a whole number; anything else fails the test.
  [[nodiscard]] double number(std::size_t row,
                              const std::string& column) const {
    const std::string text = cell(row, column);
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0') {
      ADD_FAILURE() << "column '" << column << "' row " << row
                    << " is not a number: '" << text << "'";
    }
    return v;
  }

 private:
  [[nodiscard]] std::string slice(const std::string& line,
                                  std::size_t c) const {
    const std::size_t from = starts_[c];
    if (from >= line.size()) return "";
    const std::size_t to =
        c + 1 < starts_.size() ? starts_[c + 1] : line.size();
    return trim(line.substr(from, to - from));
  }

  std::vector<std::size_t> starts_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Every table in a bench's stdout, keyed by the id in the title line above
/// its header: "=== E1a: ... ===" gives "E1a".
std::map<std::string, BenchTable> parse_tables(const std::string& out) {
  const std::vector<std::string> lines = split_lines(out);
  std::map<std::string, BenchTable> tables;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    const std::string& rule = lines[i + 1];
    if (lines[i].empty() || rule.empty() ||
        rule.find_first_not_of('-') != std::string::npos) {
      continue;
    }
    std::string id;
    for (std::size_t j = i; j-- > 0;) {
      if (lines[j].rfind("=== ", 0) == 0) {
        id = lines[j].substr(4, lines[j].find(':') - 4);
        break;
      }
    }
    std::vector<std::string> rows;
    for (std::size_t j = i + 2;
         j < lines.size() && lines[j].size() == rule.size(); ++j) {
      rows.push_back(lines[j]);
    }
    EXPECT_EQ(tables.count(id), 0u) << "two tables titled " << id;
    tables[id] = BenchTable(lines[i], rows);
  }
  return tables;
}

// --- EXPERIMENTS.md ---------------------------------------------------------

/// The fenced blocks of one "## " section and the bench its heading names
/// in backticks (empty when it names none).
struct DocSection {
  std::string heading;
  std::string bench;
  std::vector<std::vector<std::string>> blocks;
};

std::vector<DocSection> experiments_sections() {
  std::ifstream in(TREEAA_EXPERIMENTS_MD);
  EXPECT_TRUE(in.good()) << "cannot read " << TREEAA_EXPERIMENTS_MD;
  std::vector<DocSection> sections(1);
  bool fenced = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("```", 0) == 0) {
      fenced = !fenced;
      if (fenced) sections.back().blocks.emplace_back();
    } else if (fenced) {
      sections.back().blocks.back().push_back(line);
    } else if (line.rfind("## ", 0) == 0) {
      DocSection s;
      s.heading = line;
      const auto at = line.find("`bench_");
      if (at != std::string::npos) {
        s.bench = line.substr(at + 1, line.find('`', at + 1) - at - 1);
      }
      sections.push_back(std::move(s));
    }
  }
  EXPECT_FALSE(fenced) << "unterminated fenced block";
  return sections;
}

/// Every line of every block quoted under `bench`'s sections is a line of
/// its stdout, trailing padding aside.
void expect_quoted_lines_printed(const std::string& bench,
                                 const std::string& out) {
  std::set<std::string> printed;
  for (const std::string& line : split_lines(out)) printed.insert(rtrim(line));
  for (const DocSection& s : experiments_sections()) {
    if (s.bench != bench) continue;
    for (const auto& block : s.blocks) {
      for (const std::string& line : block) {
        EXPECT_EQ(printed.count(line), 1u)
            << s.heading << "\nquotes a line " << bench
            << " does not print:\n" << line;
      }
    }
  }
}

// --- Runs -------------------------------------------------------------------

/// The eight paper benches and their stdout hashes, recorded before the
/// google-benchmark binaries left the build.
const std::map<std::string, std::uint64_t> kPinned = {
    {"bench_realaa_convergence", 0x2a3dd6b9f4ac946bull},
    {"bench_treeaa_rounds", 0x76799df7689d2c5bull},
    {"bench_lower_bound", 0x8845b2bffc526283ull},
    {"bench_pathsfinder", 0x261000d5135e1c60ull},
    {"bench_message_complexity", 0xcbdc26cec23837a1ull},
    {"bench_baseline_comparison", 0x1f8efc9bb9f19837ull},
    {"bench_ablation", 0x14b81e411ddc4165ull},
    {"bench_soak", 0x4685945689b06208ull},
};

/// Runs `bench args` with the environment knobs that reshape stdout
/// (TREEAA_CSV, TREEAA_METRICS=-) unset, and checks its exit code and
/// pinned hash.
std::string run_pinned(const std::string& bench, const std::string& args = "") {
  const std::string command = "env -u TREEAA_CSV -u TREEAA_METRICS " +
                              std::string(TREEAA_BENCH_DIR) + "/" + bench +
                              args;
  SCOPED_TRACE(command);
  const auto c = run_shell(command);
  EXPECT_EQ(c.exit_code, 0);
  EXPECT_EQ(fnv1a64(c.out), kPinned.at(bench)) << c.out;
  return c.out;
}

/// The table `id`, which must exist and have rows.
BenchTable table(const std::map<std::string, BenchTable>& tables,
                 const std::string& id) {
  const auto it = tables.find(id);
  if (it == tables.end() || it->second.rows() == 0) {
    ADD_FAILURE() << "no table " << id << " with rows";
    return {};
  }
  return it->second;
}

/// Runs a pinned bench, checks its quoted lines and returns its tables.
std::map<std::string, BenchTable> pinned_tables(const std::string& bench) {
  const std::string out = run_pinned(bench);
  expect_quoted_lines_printed(bench, out);
  return parse_tables(out);
}

void expect_column_is(const BenchTable& t, const std::string& column,
                      const std::string& want) {
  for (std::size_t r = 0; r < t.rows(); ++r) {
    EXPECT_EQ(t.cell(r, column), want) << column << ", row " << r;
  }
}

/// `low` <= `high` on every row of `t`.
void expect_at_most(const BenchTable& t, const std::string& low,
                    const std::string& high) {
  for (std::size_t r = 0; r < t.rows(); ++r) {
    EXPECT_LE(t.number(r, low), t.number(r, high))
        << low << " <= " << high << ", row " << r;
  }
}

/// `column` <= `bound` on every row of `t`.
void expect_at_most_value(const BenchTable& t, const std::string& column,
                          double bound) {
  for (std::size_t r = 0; r < t.rows(); ++r) {
    EXPECT_LE(t.number(r, column), bound) << column << ", row " << r;
  }
}

// --- The claims -------------------------------------------------------------

// E1: Theorem 3 (round bound), Theorem 2 (Fekete floor), Lemma 5 (range
// envelope) and ε-agreement at ε = 1.
TEST(BenchGolden, E1RealAaConvergence) {
  const auto tables = pinned_tables("bench_realaa_convergence");
  const BenchTable e1a = table(tables, "E1a");
  expect_column_is(e1a, "within_fekete", "yes");
  expect_at_most(e1a, "fekete_lower", "rounds");
  expect_at_most(e1a, "rounds", "thm3_bound");
  expect_at_most_value(e1a, "final_range", 1.0);
  expect_at_most(table(tables, "E1b"), "range(split adv)",
                 "envelope t_i/(n-2t)");
  const BenchTable e1c = table(tables, "E1c");
  expect_column_is(e1c, "within_fekete", "yes");
  expect_at_most(e1c, "fekete_lower", "rounds");
  expect_at_most_value(e1c, "final_range", 1.0);
}

// E2: Theorem 4's envelope, the Fekete floor and 1-agreement on trees.
TEST(BenchGolden, E2TreeAaRounds) {
  const auto tables = pinned_tables("bench_treeaa_rounds");
  const BenchTable e2a = table(tables, "E2a");
  expect_column_is(e2a, "within_fekete", "yes");
  expect_at_most(e2a, "rounds(TreeAA)", "thm4_envelope");
  const BenchTable e2c = table(tables, "E2c");
  expect_column_is(e2c, "within_fekete", "yes");
  expect_column_is(e2c, "1-agreement", "yes");
}

// E3: Theorem 2's lower bound sits below TreeAA, and Theorem 1's chain
// forces every one-round rule's gap above D/ceil(n/t) >= K(1, D).
TEST(BenchGolden, E3LowerBound) {
  const auto tables = pinned_tables("bench_lower_bound");
  expect_at_most(table(tables, "E3b"), "lower", "TreeAA rounds");
  const BenchTable e3d = table(tables, "E3d");
  expect_at_most(e3d, "pigeonhole D/s", "gap(mean)");
  expect_at_most(e3d, "pigeonhole D/s", "gap(midpoint)");
  expect_at_most(e3d, "K(1,D)", "pigeonhole D/s");
}

// E5: Lemma 4's round budget, and its path property (identical paths or a
// one-edge split) in every run.
TEST(BenchGolden, E5PathsFinder) {
  const auto tables = pinned_tables("bench_pathsfinder");
  expect_at_most(table(tables, "E5a"), "rounds", "R_RealAA(2|V|,1) bound");
  const BenchTable e5b = table(tables, "E5b");
  expect_column_is(e5b, "lemma4 violations", "0");
  for (std::size_t r = 0; r < e5b.rows(); ++r) {
    EXPECT_EQ(e5b.number(r, "identical paths") +
                  e5b.number(r, "one-edge splits"),
              e5b.number(r, "runs"))
        << "row " << r;
  }
}

// E6: exactly 3n^2 messages per gradecast iteration, i.e. R n^2 in total.
TEST(BenchGolden, E6MessageComplexity) {
  const auto tables = pinned_tables("bench_message_complexity");
  const BenchTable e6a = table(tables, "E6a");
  expect_column_is(e6a, "msg/(R n^2)", "1");
  for (std::size_t r = 0; r < e6a.rows(); ++r) {
    const double n = e6a.number(r, "n");
    EXPECT_EQ(e6a.number(r, "messages"), e6a.number(r, "rounds") * n * n)
        << "row " << r;
  }
}

// E7: each winner cell follows from its round counts, and the async
// baseline satisfies AA.
TEST(BenchGolden, E7BaselineComparison) {
  const auto tables = pinned_tables("bench_baseline_comparison");
  const BenchTable e7b = table(tables, "E7b");
  for (std::size_t r = 0; r < e7b.rows(); ++r) {
    const double ours = e7b.number(r, "TreeAA");
    const double theirs = e7b.number(r, "NR baseline");
    const char* want = ours < theirs   ? "TreeAA"
                       : ours > theirs ? "baseline"
                                       : "tie";
    EXPECT_EQ(e7b.cell(r, "winner"), want) << "row " << r;
  }
  expect_column_is(table(tables, "E7d"), "AA ok?", "yes");
}

// E8: both update rules and RealAA stay within eps = 1, and TreeAA satisfies
// AA over either real-valued engine.
TEST(BenchGolden, E8Ablation) {
  const auto tables = pinned_tables("bench_ablation");
  const BenchTable e8a = table(tables, "E8a");
  expect_at_most_value(e8a, "range(mean)", 1.0);
  expect_at_most_value(e8a, "range(midpoint)", 1.0);
  expect_at_most_value(table(tables, "E8c"), "range(RealAA)", 1.0);
  expect_column_is(table(tables, "E8d"), "both satisfy AA?", "yes");
}

/// Every violation, failure and liveness column of `t` reads 0.
void expect_no_violations(const BenchTable& t) {
  std::size_t checked = 0;
  for (const std::string& column : t.columns()) {
    if (column.find("violations") == std::string::npos &&
        column.find("failures") == std::string::npos) {
      continue;
    }
    ++checked;
    expect_column_is(t, column, "0");
  }
  EXPECT_GE(checked, 3u);
}

// E9: no validity, 1-agreement, termination or liveness failure in any
// randomized run, synchronous or asynchronous.
TEST(BenchGolden, E9Soak) {
  const auto tables = pinned_tables("bench_soak");
  expect_no_violations(table(tables, "E9"));
  expect_no_violations(table(tables, "E9b"));
}

TEST(BenchGolden, E9SoakAtFourThreadsPrintsDefaultBytes) {
  run_pinned("bench_soak", " --threads 4");
}

// Every block EXPERIMENTS.md quotes sits in a section that names one of the
// pinned benches, so the tests above check all of them.
TEST(BenchGolden, ExperimentsQuotesOnlyPinnedBenches) {
  std::size_t blocks = 0;
  for (const DocSection& s : experiments_sections()) {
    if (s.blocks.empty()) continue;
    blocks += s.blocks.size();
    EXPECT_EQ(kPinned.count(s.bench), 1u)
        << s.heading << "\nquotes output but names no pinned bench";
  }
  EXPECT_GT(blocks, 0u);
}

}  // namespace
