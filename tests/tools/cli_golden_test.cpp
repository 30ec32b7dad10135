// Pins what treeaa_cli prints for its run commands across commits: the
// human table and summary, and the --report json document, as FNV-1a 64
// hashes of stdout plus the exit code. The runs cover every adversary the
// commands accept, both engines and an --adversary-spec replay, on a tree
// (`run`, `run-async`) and on a block graph (`run-block`). A refactor of
// the CLI must leave every hash untouched; a change that alters one on
// purpose re-records it and says why.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <string>

namespace {

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct Captured {
  int exit_code = -1;
  std::string out;
};

/// Runs `command` under sh and captures its stdout and exit code.
Captured run_shell(const std::string& command) {
  Captured c;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return c;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    c.out.append(buf, got);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) c.exit_code = WEXITSTATUS(status);
  return c;
}

const std::string kCli = TREEAA_CLI_PATH;
const std::string kTree = kCli + " gen spider 20 3 | " + kCli;
const std::string kGraph = kCli + " gen-graph cactus 20 7 | " + kCli;
const std::string kTreeInputs = " - --t 2 --inputs v00,v11,v05,v03,v07,v13,v16";
const std::string kGraphInputs =
    " - --t 2 --inputs v00,v11,v05,v03,v07,v13,v19";
const std::string kSplitSpec = std::string(" --adversary-spec ") +
                               TREEAA_HUNT_EXAMPLES + "/split_spec.json";

TEST(CliGolden, RunCommandsPrintPinnedBytes) {
  struct Golden {
    std::string command;
    int exit_code;
    std::uint64_t hash;
  };
  const Golden kGolden[] = {
      {kTree + " run" + kTreeInputs + " --adversary fuzz --seed 5", 0,
       0x003bada01657110eull},
      {kTree + " run" + kTreeInputs + " --adversary fuzz --seed 5"
               " --report json", 0,
       0x7a453bd01599153dull},
      {kTree + " run" + kTreeInputs + " --adversary split --seed 3"
               " --engine classic", 0,
       0x157166bc0613bef7ull},
      {kTree + " run" + kTreeInputs + " --adversary split --seed 3"
               " --report json", 0,
       0xc36d959ee0c350a0ull},
      {kTree + " run" + kTreeInputs + " --adversary silent --quiet", 0,
       0x878593dbe00d05f1ull},
      {kTree + " run" + kTreeInputs + kSplitSpec + " --report json", 0,
       0x5d6e6485c86c77e0ull},
      {kTree + " run" + kTreeInputs + " --threads 3 --metrics -", 0,
       0xb99513d4badbb460ull},
      {kTree + " run-async" + kTreeInputs + " --silent 2 --scheduler lifo",
       0, 0x022f33e06b8eb60eull},
      {kTree + " run-async" + kTreeInputs + " --silent 1 --report json", 0,
       0xa2bdbd8f1d8c1aa6ull},
      {kGraph + " run-block" + kGraphInputs + " --adversary split --seed 3",
       0, 0x02a09ffb58c96de9ull},
      {kGraph + " run-block" + kGraphInputs + " --adversary split --seed 3"
                " --report json", 0,
       0x2a8d112f835ed42aull},
      {kGraph + " run-block" + kGraphInputs + " --adversary fuzz --seed 4"
                " --engine classic --report json", 0,
       0x6f22be000c5dfce7ull},
      {kGraph + " run-block" + kGraphInputs + kSplitSpec, 0,
       0xb13e13fef16ac153ull},
      {kGraph + " run-block" + kGraphInputs + " --adversary silent --seed 2",
       0, 0x3de9aafdae156712ull},
  };
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(g.command);
    const Captured c = run_shell(g.command);
    EXPECT_EQ(c.exit_code, g.exit_code);
    EXPECT_EQ(fnv1a64(c.out), g.hash) << c.out;
  }
}

}  // namespace
