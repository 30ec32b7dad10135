// treeaa_bench: runs one end-to-end workload and reports its metrics.
//
//   treeaa_bench --workload <name> [--seed <n>] [--seconds <s>] [--traced]
//                [--span-out <file>] [--socket <path>]
//
// Prints a human-readable table, then one JSON line (the last line of
// standard output) with every metric, its unit and its sample count.
// Untraced runs report the end-to-end metrics; --traced runs report the
// per-layer ones and write Chrome trace JSON to --span-out. Exits 0 when
// every check passed, 1 when a check failed, 2 on a usage or setup error.
// e2e_bench/run.py builds this binary and drives it; see e2e_bench/README.md.
#include <unistd.h>

#include <charconv>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.h"

namespace {

using namespace treeaa::bench;

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"tree_serial", run_tree_serial}, {"tree_lanes4", run_tree_lanes4},
    {"realaa_wide", run_realaa_wide}, {"net_deploy", run_net_deploy},
    {"serve_open", run_serve_open},
};

int usage(const std::string& why) {
  std::cerr << "treeaa_bench: " << why
            << "\nusage: treeaa_bench --workload <name> [--seed <n>] "
               "[--seconds <s>] [--traced] [--span-out <file>] "
               "[--socket <path>]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.socket_path = "treeaa_bench-" + std::to_string(::getpid()) + ".sock";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      return i + 1 < argc ? std::string_view(argv[++i]) : std::string_view();
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      const std::string_view v = value();
      const auto [end, ec] =
          std::from_chars(v.data(), v.data() + v.size(), opts.seed);
      if (ec != std::errc() || end != v.data() + v.size() || v.empty()) {
        return usage("--seed needs an unsigned integer");
      }
    } else if (arg == "--seconds") {
      try {
        opts.seconds = std::stod(std::string(value()));
      } catch (const std::exception&) {
        return usage("--seconds needs a number");
      }
      if (!(opts.seconds > 0 && opts.seconds <= 600)) {
        return usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--traced") {
      opts.traced = true;
    } else if (arg == "--span-out") {
      opts.span_path = value();
    } else if (arg == "--socket") {
      opts.socket_path = value();
    } else {
      return usage("unknown argument '" + std::string(arg) + "'");
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opts.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    return usage("unknown workload '" + opts.workload + "'");
  }

  Report report;
  try {
    workload->run(opts, report);
  } catch (const std::exception& e) {
    std::cerr << "treeaa_bench: " << opts.workload << ": " << e.what() << "\n";
    return 2;
  }
  std::cout << opts.workload << " (seed " << opts.seed << ", "
            << opts.seconds << " s" << (opts.traced ? ", traced" : "")
            << ")\n"
            << report.text() << report.json(opts) << std::endl;
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
