// treeaa_serve — the multi-tenant agreement-as-a-service daemon.
//
//   treeaa_serve (--unix <path> | --tcp <port>) ...
//               [--topology <name>=<file>] [--graph <name>=<file>]
//               [--gen <name>=<family>:<size>[:<seed>]]
//               [--gen-graph <name>=<family>:<size>[:<seed>]]
//               [--threads <k>] [--max-inflight <k>] [--max-queue <k>]
//               [--batch <k>] [--ledger] [--report <file|->] [--timings]
//               [--spans <file|->] [--port-file <file>] [--quiet]
//
// Boots the epoll event loop of src/serve/server.h over an AF_UNIX and/or
// loopback-TCP listener, serves agreement instances for every protocol in
// the harness registry against the named topology catalog, and exits on
// SIGTERM/SIGINT after a graceful drain (finish the queue, flush every
// reply). With no catalog flags the daemon serves a single "default"
// topology: the seed-1 random tree on 101 vertices.
//
// --tcp 0 binds an ephemeral port; --port-file writes the resolved port for
// scripts that need to find the daemon. The exit status is 0 only when
// every completed instance passed its agreement check ("agreement as a
// service" means a failed check is a server failure, not a client result);
// --ledger additionally replays the convergence ledger (src/exp/ledger.h)
// over every completed sync-AA instance and fails the exit status on any
// theory-vs-observed violation.
// --report writes `treeaa.serve_report/1`; without --timings the document
// is canonical — byte-identical across same-workload runs at any
// --threads (docs/SERVE.md).
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common_flags.h"
#include "graphs/generators.h"
#include "graphs/serialization.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "serve/server.h"
#include "trees/generators.h"
#include "trees/serialization.h"

namespace {

using namespace treeaa;

serve::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

const tools::CommonFlagSet kServeFlags = {.threads = true,
                                          .report_path = true,
                                          .spans = true,
                                          .timings = true,
                                          .quiet = true};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  treeaa_serve (--unix <path> | --tcp <port>) ...\n"
      "              [--topology <name>=<file>] [--graph <name>=<file>]\n"
      "              [--gen <name>=<family>:<size>[:<seed>]]\n"
      "              [--gen-graph <name>=<family>:<size>[:<seed>]]\n"
      "              [--max-inflight <k>] [--max-queue <k>]\n"
      "              [--batch <k>] [--ledger] [--port-file <file>]\n"
      "              " << tools::common_flags_usage(kServeFlags) << "\n"
      "\n"
      "tree families: path star binary caterpillar spider random\n"
      "graph families: tree clique_chain block_random cactus\n";
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Splits "name=value"; both halves must be non-empty.
std::pair<std::string, std::string> split_assign(const std::string& s,
                                                 const char* flag) {
  const auto eq = s.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == s.size()) {
    usage(std::string(flag) + " needs <name>=<value>");
  }
  return {s.substr(0, eq), s.substr(eq + 1)};
}

/// Parses "<family>:<size>[:<seed>]".
struct GenSpec {
  std::string family;
  std::size_t size = 0;
  std::uint64_t seed = 1;
};

GenSpec parse_gen(const std::string& s, const char* flag) {
  GenSpec spec;
  std::istringstream is(s);
  std::string item;
  std::vector<std::string> parts;
  while (std::getline(is, item, ':')) parts.push_back(item);
  if (parts.size() < 2 || parts.size() > 3) {
    usage(std::string(flag) + " needs <family>:<size>[:<seed>]");
  }
  const tools::UsageFn fail = [](const std::string& m) { usage(m); };
  spec.family = parts[0];
  spec.size =
      tools::parse_unsigned(std::string(flag) + " size", parts[1], fail);
  if (parts.size() == 3) {
    spec.seed =
        tools::parse_unsigned(std::string(flag) + " seed", parts[2], fail);
  }
  return spec;
}

LabeledTree gen_tree(const GenSpec& spec) {
  Rng rng(spec.seed);
  for (const TreeFamily f : all_tree_families()) {
    if (spec.family == tree_family_name(f)) {
      return make_family_tree(f, spec.size, rng);
    }
  }
  usage("unknown tree family '" + spec.family + "'");
}

graphs::Graph gen_graph(const GenSpec& spec) {
  Rng rng(spec.seed);
  for (const graphs::GraphFamily f : graphs::all_graph_families()) {
    if (spec.family == graphs::graph_family_name(f)) {
      return graphs::make_family_graph(f, spec.size, rng);
    }
  }
  usage("unknown graph family '" + spec.family + "'");
}

int run(const std::vector<std::string>& args) {
  serve::Catalog catalog;
  serve::ServerOptions opts;
  std::string port_file;
  tools::CommonFlags flags;
  const tools::UsageFn fail = [](const std::string& m) { usage(m); };

  for (std::size_t i = 0; i < args.size(); ++i) {
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage("missing value after " + args[i]);
      return args[++i];
    };
    if (args[i] == "--unix") {
      opts.unix_path = next();
    } else if (args[i] == "--tcp") {
      opts.tcp_port = static_cast<std::uint16_t>(
          tools::parse_unsigned_at_most("--tcp", next(), 65535, fail));
    } else if (args[i] == "--topology") {
      const auto [name, file] = split_assign(next(), "--topology");
      catalog.add_tree(name, tree_from_text(read_file(file)));
    } else if (args[i] == "--graph") {
      const auto [name, file] = split_assign(next(), "--graph");
      catalog.add_graph(name, graphs::graph_from_text(read_file(file)));
    } else if (args[i] == "--gen") {
      const auto [name, spec] = split_assign(next(), "--gen");
      catalog.add_tree(name, gen_tree(parse_gen(spec, "--gen")));
    } else if (args[i] == "--gen-graph") {
      const auto [name, spec] = split_assign(next(), "--gen-graph");
      catalog.add_graph(name, gen_graph(parse_gen(spec, "--gen-graph")));
    } else if (args[i] == "--max-inflight") {
      opts.max_inflight_per_tenant =
          tools::parse_unsigned("--max-inflight", next(), fail);
    } else if (args[i] == "--max-queue") {
      opts.max_queue = tools::parse_unsigned("--max-queue", next(), fail);
    } else if (args[i] == "--batch") {
      opts.max_batch = tools::parse_unsigned("--batch", next(), fail);
    } else if (args[i] == "--ledger") {
      opts.ledger = true;
    } else if (args[i] == "--port-file") {
      port_file = next();
    } else if (tools::parse_common_flag(args, i, kServeFlags, flags, fail)) {
      // consumed
    } else {
      usage("unknown option '" + args[i] + "'");
    }
  }
  opts.threads = flags.threads;
  const std::string& report_path = flags.report_path;
  const std::string& spans_path = flags.spans_path;
  const bool timings = flags.timings;
  const bool quiet = flags.quiet;
  if (opts.unix_path.empty() && !opts.tcp_port.has_value()) {
    usage("need --unix and/or --tcp");
  }
  if (catalog.empty()) {
    Rng rng(1);
    catalog.add_tree("default", make_random_tree(101, rng));
  }

  obs::SpanSink span_sink;
  if (!spans_path.empty()) opts.spans = &span_sink;

  serve::Server server(std::move(catalog), std::move(opts));
  g_server = &server;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.tcp_port() << "\n";
  }
  if (!quiet) {
    std::cerr << "treeaa_serve: listening"
              << (server.tcp_port() != 0
                      ? " tcp:" + std::to_string(server.tcp_port())
                      : "")
              << "\n";
  }

  server.run();
  g_server = nullptr;

  const auto& report = server.report();
  if (!report_path.empty()) {
    if (!obs::write_sink(report_path, report.to_json(timings) + "\n")) {
      return 2;
    }
  }
  if (!spans_path.empty()) {
    if (!obs::write_sink(spans_path, span_sink.to_chrome_json())) return 2;
  }
  if (!quiet) {
    std::cerr << "treeaa_serve: drained — started "
              << report.total(&serve::TenantStats::started) << ", completed "
              << report.total(&serve::TenantStats::completed) << ", rejected "
              << report.total(&serve::TenantStats::rejected)
              << ", check failures "
              << report.total(&serve::TenantStats::check_failures) << "\n";
  }
  return server.clean() ? 0 : 1;
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
