// Serve-plane throughput: sessions/second through the full treeaa_serve
// stack — session framing, admission control, dispatch, instance
// execution, reply — measured end to end over a real AF_UNIX socket.
//
//   bench_serve_mux [--out <file|->] [--check-against <baseline.json>]
//                   [--max-regression <pct>] [--reps-scale <x>]
//                   [--threads <k>]
//
// One pinned scenario, `serve_mux_2k`: 2000 small tree_aa instances
// (n = 4, t = 1 on a 25-vertex random tree) admitted *sequentially* — the
// client opens session i+1 only after session i's reply arrives — so the
// number measures per-session round-trip cost through the daemon, not
// batch parallelism. The report is a `treeaa.perf_report/1` document with
// a `sessions_per_s` rate per scenario; `--check-against
// bench/perf_baseline.json` gates the run exactly like
// bench_sim_throughput --pinned (default --max-regression 25, see
// docs/PERF.md).
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common_flags.h"
#include "common/json_value.h"
#include "obs/json.h"
#include "obs/sink.h"
#include "perf/parallel.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trees/generators.h"

namespace {

using namespace treeaa;

struct MuxResult {
  std::string name;
  std::size_t sessions = 0;
  std::size_t threads = 1;
  std::size_t host_cpus = 0;  // std::thread::hardware_concurrency()
  std::size_t workers = 1;    // effective WorkerPool workers for `threads`
  std::uint64_t wall_ns = 0;
  double sessions_per_s = 0.0;
};

/// Drives `sessions` sequentially-admitted tree_aa instances through a
/// freshly booted daemon and returns the observed rate. Exits the process
/// on any non-ok reply — a throughput number for a broken run is worse
/// than no number.
MuxResult run_serve_mux(std::size_t sessions, std::size_t threads) {
  const std::string sock = "bench_serve_mux.sock";
  serve::Catalog catalog;
  Rng rng(3);
  catalog.add_tree("default", make_random_tree(25, rng));

  serve::ServerOptions opts;
  opts.unix_path = sock;
  opts.threads = threads;
  serve::Server server(std::move(catalog), std::move(opts));
  std::thread loop([&server] { server.run(); });

  serve::Client client = serve::Client::connect_unix(sock);
  serve::OpenRequest req;
  req.tenant = "bench";
  req.protocol = "tree_aa";
  req.topology = "default";
  req.n = 4;
  req.t = 1;
  req.adversary = "none";

  // Warmup faults in code paths and the first dispatch's pool lease.
  for (std::uint64_t i = 0; i < 3; ++i) {
    req.seed = 1000 + i;
    client.open(req);
    while (client.inflight() > 0 && !client.broken()) (void)client.wait(100);
  }

  MuxResult result;
  result.name = "serve_mux_2k";
  result.sessions = sessions;
  result.threads = threads;
  result.host_cpus = std::thread::hardware_concurrency();
  result.workers = perf::WorkerPool::default_workers(threads);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < sessions; ++i) {
    req.seed = i + 1;
    client.open(req);
    while (client.inflight() > 0 && !client.broken()) {
      for (const auto& event : client.wait(100)) {
        if (event.kind != serve::Client::Event::Kind::kResult ||
            !event.result.ok) {
          std::cerr << "serve_mux: session " << event.session_id
                    << " did not complete ok\n";
          std::exit(2);
        }
      }
    }
    if (client.broken()) {
      std::cerr << "serve_mux: connection broke mid-run\n";
      std::exit(2);
    }
  }
  const auto end = std::chrono::steady_clock::now();
  server.request_drain();
  loop.join();

  result.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
  result.sessions_per_s =
      result.wall_ns == 0
          ? 0.0
          : static_cast<double>(result.sessions) * 1e9 /
                static_cast<double>(result.wall_ns);
  return result;
}

std::string perf_report_json(const std::vector<MuxResult>& results) {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("schema");
  w.value(std::string_view("treeaa.perf_report/1"));
  w.key("bench");
  w.value(std::string_view("serve_mux_pinned"));
  w.key("scenarios");
  w.begin_array();
  for (const MuxResult& r : results) {
    w.begin_object();
    w.key("name");
    w.value(std::string_view(r.name));
    w.key("sessions");
    w.value(static_cast<std::uint64_t>(r.sessions));
    w.key("threads");
    w.value(static_cast<std::uint64_t>(r.threads));
    w.key("host_cpus");
    w.value(static_cast<std::uint64_t>(r.host_cpus));
    w.key("workers");
    w.value(static_cast<std::uint64_t>(r.workers));
    w.key("wall_ns");
    w.value(r.wall_ns);
    w.key("sessions_per_s");
    w.value(r.sessions_per_s);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out += '\n';
  return out;
}

/// Same gate contract as bench_sim_throughput: scenarios missing from the
/// baseline are reported but never fail (adding a scenario must not need a
/// lockstep baseline update); the rate key here is `sessions_per_s`.
int check_against_baseline(const std::vector<MuxResult>& results,
                           const std::string& baseline_path,
                           double max_regression_pct, std::ostream& human) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::cerr << "perf gate: cannot open baseline '" << baseline_path << "'\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto doc = treeaa::JsonValue::parse(buffer.str());
  if (!doc.has_value() || !doc->is_object()) {
    std::cerr << "perf gate: malformed baseline '" << baseline_path << "'\n";
    return 1;
  }
  const treeaa::JsonValue* scenarios = doc->find("scenarios");
  if (scenarios == nullptr || !scenarios->is_array()) {
    std::cerr << "perf gate: baseline has no scenarios array\n";
    return 1;
  }

  int regressions = 0;
  for (const MuxResult& r : results) {
    double baseline = 0.0;
    for (const treeaa::JsonValue& s : scenarios->items()) {
      const treeaa::JsonValue* name = s.find("name");
      const treeaa::JsonValue* rate = s.find("sessions_per_s");
      if (name != nullptr && name->is_string() &&
          name->as_string() == r.name && rate != nullptr &&
          rate->is_number()) {
        baseline = rate->as_number();
      }
    }
    if (baseline <= 0.0) {
      std::cerr << "perf gate: no baseline for '" << r.name << "' (skipped)\n";
      continue;
    }
    const double floor = baseline * (1.0 - max_regression_pct / 100.0);
    const double delta_pct = (r.sessions_per_s / baseline - 1.0) * 100.0;
    human << "perf gate: " << r.name << " " << std::fixed
          << static_cast<std::uint64_t>(r.sessions_per_s)
          << " sessions/s vs baseline "
          << static_cast<std::uint64_t>(baseline) << " ("
          << (delta_pct >= 0 ? "+" : "") << delta_pct << "%)\n";
    if (r.sessions_per_s < floor) {
      std::cerr << "perf gate: FAIL " << r.name << " regressed more than "
                << max_regression_pct << "% (floor "
                << static_cast<std::uint64_t>(floor) << " sessions/s)\n";
      ++regressions;
    }
  }
  return regressions;
}

}  // namespace

int main(int argc, char** argv) {
  // Flag vocabulary from tools/common_flags, same set as
  // bench_sim_throughput --pinned; error strings match the historical
  // hand-rolled parser.
  const std::vector<std::string> args(argv + 1, argv + argc);
  tools::CommonFlagSet set;
  set.threads = true;
  set.bench_gate = true;
  tools::CommonFlags flags;
  const tools::UsageFn fail = [](const std::string& msg) {
    std::cerr << msg << "\n";
    std::exit(2);
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (tools::parse_common_flag(args, i, set, flags, fail)) continue;
    std::cerr << "unknown option '" << args[i] << "'\n";
    return 2;
  }
  const std::string out_path =
      obs::resolve_metrics_path(std::move(flags.out_path));
  std::ostream& human = out_path == "-" ? std::cerr : std::cout;

  const auto sessions = std::max<std::size_t>(
      1, static_cast<std::size_t>(2000.0 * flags.reps_scale));
  std::vector<MuxResult> results;
  results.push_back(run_serve_mux(sessions, flags.threads));
  for (const MuxResult& r : results) {
    human << r.name << ": " << r.sessions << " sessions in "
          << r.wall_ns / 1000000 << " ms, "
          << static_cast<std::uint64_t>(r.sessions_per_s) << " sessions/s\n";
  }
  if (!out_path.empty() &&
      !obs::write_sink(out_path, perf_report_json(results))) {
    return 2;
  }
  if (!flags.check_against.empty()) {
    return check_against_baseline(results, flags.check_against,
                                  flags.max_regression_pct, human) > 0
               ? 1
               : 0;
  }
  return 0;
}
