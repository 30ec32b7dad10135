// Helpers for the golden tests that pin bytes across commits: the FNV-1a 64
// hash every golden table records, and a shell runner for the tests that
// drive built binaries and pin their stdout and exit code.
#pragma once

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace treeaa::test_support {

namespace detail {

template <typename Range>
std::uint64_t fnv1a64_of(const Range& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace detail

inline std::uint64_t fnv1a64(std::string_view s) {
  return detail::fnv1a64_of(s);
}

inline std::uint64_t fnv1a64(const Bytes& bytes) {
  return detail::fnv1a64_of(bytes);
}

struct Captured {
  int exit_code = -1;
  std::string out;
};

/// Runs `command` under sh and captures its stdout and exit code (-1 when
/// the command could not start or did not exit normally).
inline Captured run_shell(const std::string& command) {
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

}  // namespace treeaa::test_support
