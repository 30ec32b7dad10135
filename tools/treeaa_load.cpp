// treeaa_load — concurrent-session load generator for treeaa_serve.
//
//   treeaa_load (--unix <path> | --tcp <port>)
//              [--sessions <k>] [--connections <k>] [--concurrency <k>]
//              [--protocol <name>]... [--topology <name>] [--tenants <k>]
//              [--n <k>] [--t <k>] [--adversary <name>] [--corrupt <k>]
//              [--inputs spread|random] [--eps <x>] [--known-range <x>]
//              [--seed <k>] [--min-complete <k>] [--max-p99-ms <x>]
//              [--expect-reject] [--report <file|->] [--quiet]
//
// Opens `--connections` client connections and drives `--sessions` total
// agreement instances across them, keeping up to `--concurrency` sessions
// in flight at once (default: all of them — the 10k-concurrent acceptance
// run is just `--sessions 10000`). Sessions round-robin over the
// `--protocol` list (repeat the flag to mix protocols) and over
// `--tenants` synthetic tenant names; each session gets seed
// `--seed + index`.
//
// Every session resolves as completed (a ResultReply), rejected (a typed
// RejectReply), or lost (connection closed). The run PASSES — exit 0 —
// only when completions reach `--min-complete` (default: all sessions),
// every completed instance reports ok=true (the server-side
// check_agreement verdict), no session is lost, and, when `--max-p99-ms`
// is given, the client-observed p99 open-to-reply latency is under the
// bound. With --expect-reject the gate inverts for admission-control
// tests: rejects count toward min-complete and completions are unbounded.
// --report writes a `treeaa.load_report/1` JSON document.
#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common_flags.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "serve/client.h"

namespace {

using namespace treeaa;

const tools::CommonFlagSet kLoadFlags = {.seed = true,
                                         .report_path = true,
                                         .quiet = true};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  treeaa_load (--unix <path> | --tcp <port>)\n"
      "             [--sessions <k>] [--connections <k>] [--concurrency <k>]\n"
      "             [--protocol <name>]... [--topology <name>] [--tenants <k>]\n"
      "             [--n <k>] [--t <k>] [--adversary none|silent|fuzz]\n"
      "             [--corrupt <k>] [--inputs spread|random] [--eps <x>]\n"
      "             [--known-range <x>] [--min-complete <k>]\n"
      "             [--max-p99-ms <x>] [--expect-reject]\n"
      "             " << tools::common_flags_usage(kLoadFlags) << "\n";
  std::exit(2);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SessionKey {
  std::size_t conn;
  std::uint64_t session_id;
  bool operator<(const SessionKey& o) const {
    return conn != o.conn ? conn < o.conn : session_id < o.session_id;
  }
};

int run(const std::vector<std::string>& args) {
  std::string unix_path;
  std::uint16_t tcp_port = 0;
  bool have_tcp = false;
  std::size_t sessions = 1000;
  std::size_t connections = 64;
  std::size_t concurrency = 0;  // 0 = unbounded
  std::vector<std::string> protocols;
  std::size_t tenants = 4;
  serve::OpenRequest base;
  base.topology = "default";
  base.n = 8;
  base.t = 2;
  base.adversary = "none";
  std::size_t min_complete = SIZE_MAX;  // default: all sessions
  double max_p99_ms = 0.0;              // 0 = no latency gate
  bool expect_reject = false;
  tools::CommonFlags flags;
  const tools::UsageFn fail = [](const std::string& m) { usage(m); };

  for (std::size_t i = 0; i < args.size(); ++i) {
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage("missing value after " + args[i]);
      return args[++i];
    };
    if (args[i] == "--unix") {
      unix_path = next();
    } else if (args[i] == "--tcp") {
      tcp_port = static_cast<std::uint16_t>(
          tools::parse_unsigned_at_most("--tcp", next(), 65535, fail));
      have_tcp = true;
    } else if (args[i] == "--sessions") {
      sessions = tools::parse_unsigned("--sessions", next(), fail);
    } else if (args[i] == "--connections") {
      connections = tools::parse_unsigned("--connections", next(), fail);
    } else if (args[i] == "--concurrency") {
      concurrency = tools::parse_unsigned("--concurrency", next(), fail);
    } else if (args[i] == "--protocol") {
      protocols.push_back(next());
    } else if (args[i] == "--topology") {
      base.topology = next();
    } else if (args[i] == "--tenants") {
      tenants = tools::parse_unsigned("--tenants", next(), fail);
    } else if (args[i] == "--n") {
      base.n = tools::parse_unsigned("--n", next(), fail);
    } else if (args[i] == "--t") {
      base.t = tools::parse_unsigned("--t", next(), fail);
    } else if (args[i] == "--adversary") {
      base.adversary = next();
    } else if (args[i] == "--corrupt") {
      base.corrupt = tools::parse_unsigned("--corrupt", next(), fail);
    } else if (args[i] == "--inputs") {
      const std::string& v = next();
      if (v == "spread") {
        base.inputs = serve::InputKind::kSpread;
      } else if (v == "random") {
        base.inputs = serve::InputKind::kRandom;
      } else {
        usage("--inputs must be spread or random");
      }
    } else if (args[i] == "--eps") {
      base.eps = tools::parse_positive_double("--eps", next(), fail);
    } else if (args[i] == "--known-range") {
      base.known_range =
          tools::parse_positive_double("--known-range", next(), fail);
    } else if (args[i] == "--min-complete") {
      min_complete = tools::parse_unsigned("--min-complete", next(), fail);
    } else if (args[i] == "--max-p99-ms") {
      max_p99_ms = tools::parse_positive_double("--max-p99-ms", next(), fail);
    } else if (args[i] == "--expect-reject") {
      expect_reject = true;
    } else if (tools::parse_common_flag(args, i, kLoadFlags, flags, fail)) {
      // consumed
    } else {
      usage("unknown option '" + args[i] + "'");
    }
  }
  const std::uint64_t seed_base = flags.seed;
  const std::string& report_path = flags.report_path;
  const bool quiet = flags.quiet;
  if (unix_path.empty() && !have_tcp) usage("need --unix or --tcp");
  if (sessions == 0) usage("--sessions must be positive");
  if (connections == 0) usage("--connections must be positive");
  if (protocols.empty()) protocols.push_back("tree_aa");
  if (tenants == 0) tenants = 1;
  if (min_complete == SIZE_MAX) min_complete = sessions;
  connections = std::min(connections, sessions);

  std::vector<serve::Client> clients;
  clients.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    clients.push_back(unix_path.empty()
                          ? serve::Client::connect_tcp(tcp_port)
                          : serve::Client::connect_unix(unix_path));
  }

  // Latency is open()-to-reply, in nanoseconds, client-observed: it
  // includes queueing in the daemon, which is the number a tenant feels.
  obs::Histogram latency(obs::ScopeTimer::wall_bounds());
  std::map<SessionKey, std::uint64_t> open_ns;
  std::size_t opened = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t lost = 0;
  std::size_t check_failures = 0;
  std::size_t inflight = 0;
  std::map<std::string, std::uint64_t> rejects;
  const std::uint64_t start_ns = now_ns();

  auto open_more = [&]() {
    while (opened < sessions &&
           (concurrency == 0 || inflight < concurrency)) {
      const std::size_t conn = opened % connections;
      if (clients[conn].broken()) {
        // Account the never-opened session as lost rather than spinning.
        ++opened;
        ++lost;
        continue;
      }
      serve::OpenRequest req = base;
      req.tenant = "tenant-" + std::to_string(opened % tenants);
      req.protocol = protocols[opened % protocols.size()];
      req.seed = seed_base + opened;
      const std::uint64_t sid = clients[conn].open(req);
      open_ns[{conn, sid}] = now_ns();
      ++opened;
      ++inflight;
    }
  };

  std::vector<serve::Client::Event> events;
  std::vector<pollfd> pfds(connections);
  open_more();
  while (completed + rejected + lost < sessions) {
    std::size_t live = 0;
    for (std::size_t c = 0; c < connections; ++c) {
      if (clients[c].broken() ||
          (clients[c].inflight() == 0 && !clients[c].wants_write())) {
        continue;
      }
      pfds[live].fd = clients[c].fd();
      pfds[live].events = POLLIN;
      if (clients[c].wants_write()) pfds[live].events |= POLLOUT;
      ++live;
    }
    if (live == 0) break;  // every remaining session is on a broken conn
    (void)::poll(pfds.data(), live, 1000);

    for (std::size_t c = 0; c < connections; ++c) {
      if (clients[c].broken()) continue;
      events.clear();
      clients[c].pump(events);
      const std::uint64_t reply_ns = now_ns();
      for (const auto& event : events) {
        const SessionKey key{c, event.session_id};
        const auto it = open_ns.find(key);
        if (it != open_ns.end()) {
          latency.observe(static_cast<double>(reply_ns - it->second));
          open_ns.erase(it);
        }
        --inflight;
        switch (event.kind) {
          case serve::Client::Event::Kind::kResult:
            ++completed;
            if (!event.result.ok) ++check_failures;
            break;
          case serve::Client::Event::Kind::kReject:
            ++rejected;
            ++rejects[serve::reject_code_name(event.reject.code)];
            break;
          case serve::Client::Event::Kind::kClosed:
            ++lost;
            break;
        }
      }
    }
    open_more();
  }
  // Sessions stranded on broken connections never produced kClosed events
  // for opens we counted but the client dropped before queueing; reconcile.
  lost += sessions - (completed + rejected + lost);

  const double elapsed_s =
      static_cast<double>(now_ns() - start_ns) / 1e9;
  const double p50 = latency.percentile(50.0);
  const double p90 = latency.percentile(90.0);
  const double p99 = latency.percentile(99.0);

  bool pass = check_failures == 0 && lost == 0;
  const std::size_t gate_count = expect_reject ? completed + rejected
                                               : completed;
  if (gate_count < min_complete) pass = false;
  if (!expect_reject && rejected != 0) pass = false;
  if (max_p99_ms > 0.0 && p99 / 1e6 > max_p99_ms) pass = false;

  if (!report_path.empty()) {
    std::string json;
    obs::JsonWriter w(json);
    w.begin_object();
    w.key("schema");
    w.value("treeaa.load_report/1");
    w.key("sessions");
    w.value(static_cast<std::uint64_t>(sessions));
    w.key("connections");
    w.value(static_cast<std::uint64_t>(connections));
    w.key("completed");
    w.value(static_cast<std::uint64_t>(completed));
    w.key("rejected");
    w.value(static_cast<std::uint64_t>(rejected));
    w.key("lost");
    w.value(static_cast<std::uint64_t>(lost));
    w.key("check_failures");
    w.value(static_cast<std::uint64_t>(check_failures));
    w.key("rejects");
    w.begin_object();
    for (const auto& [name, count] : rejects) {
      w.key(name);
      w.value(count);
    }
    w.end_object();
    w.key("elapsed_s");
    w.value(elapsed_s);
    w.key("sessions_per_s");
    w.value(elapsed_s > 0.0 ? static_cast<double>(completed + rejected) /
                                  elapsed_s
                            : 0.0);
    w.key("latency_ns");
    w.begin_object();
    w.key("p50");
    w.value(p50);
    w.key("p90");
    w.value(p90);
    w.key("p99");
    w.value(p99);
    w.end_object();
    w.key("pass");
    w.value(pass);
    w.end_object();
    if (!obs::write_sink(report_path, json + "\n")) return 2;
  }
  if (!quiet) {
    std::cerr << "treeaa_load: " << completed << "/" << sessions
              << " completed, " << rejected << " rejected, " << lost
              << " lost, " << check_failures << " check failures in "
              << elapsed_s << "s (p99 " << p99 / 1e6 << " ms) — "
              << (pass ? "PASS" : "FAIL") << "\n";
  }
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
