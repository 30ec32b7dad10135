// The serve event loop end to end over real AF_UNIX / TCP sockets:
// multiplexed sessions complete correctly, admission control sheds with
// typed rejects, protocol errors fail closed, and the canonical report is
// byte-identical across worker thread counts.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "graphs/generators.h"
#include "net/socket.h"
#include "serve/client.h"
#include "trees/generators.h"

namespace treeaa::serve {
namespace {

Catalog test_catalog() {
  Catalog catalog;
  Rng tree_rng(3);
  catalog.add_tree("main", make_family_tree(TreeFamily::kRandom, 25, tree_rng));
  Rng graph_rng(4);
  catalog.add_graph("main", graphs::make_family_graph(
                                graphs::GraphFamily::kCactus, 18, graph_rng));
  return catalog;
}

OpenRequest request(const char* tenant, const char* protocol,
                    std::uint64_t seed) {
  OpenRequest req;
  req.tenant = tenant;
  req.protocol = protocol;
  req.topology = "main";
  req.n = 8;
  req.t = 2;
  req.seed = seed;
  req.adversary = "none";
  return req;
}

/// Pumps the client until every in-flight session resolved (bounded by
/// ~10 s so a deadlock fails the test instead of hanging it).
std::vector<Client::Event> drain_client(Client& client) {
  std::vector<Client::Event> events;
  for (int i = 0; i < 1000 && client.inflight() > 0 && !client.broken(); ++i) {
    for (auto& event : client.wait(10)) events.push_back(std::move(event));
  }
  return events;
}

TEST(Server, MultiplexesConcurrentInstancesOverUnix) {
  const std::string sock = "server_ut_mux.sock";
  ServerOptions opts;
  opts.unix_path = sock;
  opts.threads = 2;
  Server server(test_catalog(), std::move(opts));
  std::thread loop([&server] { server.run(); });

  Client client = Client::connect_unix(sock);
  const char* protocols[] = {"tree_aa", "real_aa", "block_aa",
                             "iterated_tree_aa", "async_tree_aa"};
  constexpr std::size_t kSessions = 20;
  for (std::size_t i = 0; i < kSessions; ++i) {
    client.open(request(i % 2 == 0 ? "alpha" : "beta",
                        protocols[i % std::size(protocols)], 100 + i));
  }
  const auto events = drain_client(client);
  server.request_drain();
  loop.join();

  ASSERT_EQ(events.size(), kSessions);
  for (const auto& event : events) {
    ASSERT_EQ(event.kind, Client::Event::Kind::kResult);
    EXPECT_TRUE(event.result.ok) << "session " << event.session_id;
  }
  EXPECT_TRUE(server.clean());
  const ServeReport& report = server.report();
  EXPECT_EQ(report.total(&TenantStats::started), kSessions);
  EXPECT_EQ(report.total(&TenantStats::completed), kSessions);
  EXPECT_EQ(report.total(&TenantStats::rejected), 0u);
  EXPECT_EQ(report.accepted_connections, 1u);
  ASSERT_EQ(report.table.tenants.count("alpha"), 1u);
  EXPECT_EQ(report.table.tenants.at("alpha").completed, kSessions / 2);
}

TEST(Server, WorksOverLoopbackTcp) {
  ServerOptions opts;
  opts.tcp_port = 0;  // ephemeral
  Server server(test_catalog(), std::move(opts));
  ASSERT_NE(server.tcp_port(), 0);
  std::thread loop([&server] { server.run(); });

  Client client = Client::connect_tcp(server.tcp_port());
  client.open(request("tcp", "tree_aa", 1));
  const auto events = drain_client(client);
  server.request_drain();
  loop.join();

  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, Client::Event::Kind::kResult);
  EXPECT_TRUE(events[0].result.ok);
}

TEST(Server, ValidationRejectsAreTypedAndKeepTheConnectionAlive) {
  const std::string sock = "server_ut_rej.sock";
  ServerOptions opts;
  opts.unix_path = sock;
  Server server(test_catalog(), std::move(opts));
  std::thread loop([&server] { server.run(); });

  Client client = Client::connect_unix(sock);
  OpenRequest bad = request("r", "no_such_protocol", 1);
  client.open(bad);
  OpenRequest good = request("r", "tree_aa", 2);
  client.open(good);
  const auto events = drain_client(client);
  server.request_drain();
  loop.join();

  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(client.broken());
  int rejects = 0, results = 0;
  for (const auto& event : events) {
    if (event.kind == Client::Event::Kind::kReject) {
      ++rejects;
      EXPECT_EQ(event.reject.code, RejectCode::kUnknownProtocol);
    } else if (event.kind == Client::Event::Kind::kResult) {
      ++results;
      EXPECT_TRUE(event.result.ok);
    }
  }
  EXPECT_EQ(rejects, 1);
  EXPECT_EQ(results, 1);
  EXPECT_EQ(server.report().total(&TenantStats::rejected), 1u);
  EXPECT_EQ(
      server.report().table.tenants.at("r").rejects.at("unknown_protocol"),
      1u);
  EXPECT_TRUE(server.clean());  // rejects are not failures
}

TEST(Server, PerTenantInflightCapShedsTenantBusy) {
  const std::string sock = "server_ut_busy.sock";
  ServerOptions opts;
  opts.unix_path = sock;
  opts.max_inflight_per_tenant = 3;
  Server server(test_catalog(), std::move(opts));
  std::thread loop([&server] { server.run(); });

  // Pipelining all opens into one write makes the shed deterministic: the
  // loop reads the whole burst in one tick, before any instance completes,
  // so exactly cap-many are admitted and the rest bounce.
  Client client = Client::connect_unix(sock);
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    client.open(request("hog", "tree_aa", static_cast<std::uint64_t>(i)));
  }
  const auto events = drain_client(client);
  server.request_drain();
  loop.join();

  ASSERT_EQ(events.size(), kBurst);
  int busy = 0, done = 0;
  for (const auto& event : events) {
    if (event.kind == Client::Event::Kind::kReject) {
      EXPECT_EQ(event.reject.code, RejectCode::kTenantBusy);
      ++busy;
    } else if (event.kind == Client::Event::Kind::kResult) {
      EXPECT_TRUE(event.result.ok);
      ++done;
    }
  }
  EXPECT_EQ(done, 3);
  EXPECT_EQ(busy, kBurst - 3);
  EXPECT_EQ(server.report().table.tenants.at("hog").rejects.at("tenant_busy"),
            static_cast<std::uint64_t>(kBurst - 3));
}

TEST(Server, GlobalQueueDepthShedsQueueFull) {
  const std::string sock = "server_ut_qf.sock";
  ServerOptions opts;
  opts.unix_path = sock;
  opts.max_queue = 2;
  Server server(test_catalog(), std::move(opts));
  std::thread loop([&server] { server.run(); });

  Client client = Client::connect_unix(sock);
  constexpr int kBurst = 6;
  for (int i = 0; i < kBurst; ++i) {
    // Distinct tenants so the per-tenant cap never fires first. (Appending,
    // not "t" + to_string: GCC 12's Release -Wrestrict misfires on that
    // insert.)
    std::string tenant = "t";
    tenant += std::to_string(i);
    client.open(request(tenant.c_str(), "tree_aa",
                        static_cast<std::uint64_t>(i)));
  }
  const auto events = drain_client(client);
  server.request_drain();
  loop.join();

  ASSERT_EQ(events.size(), kBurst);
  int full = 0, done = 0;
  for (const auto& event : events) {
    if (event.kind == Client::Event::Kind::kReject) {
      EXPECT_EQ(event.reject.code, RejectCode::kQueueFull);
      ++full;
    } else {
      ++done;
    }
  }
  EXPECT_EQ(done, 2);
  EXPECT_EQ(full, kBurst - 2);
}

TEST(Server, GarbageFramesFailClosed) {
  const std::string sock = "server_ut_garbage.sock";
  ServerOptions opts;
  opts.unix_path = sock;
  Server server(test_catalog(), std::move(opts));
  std::thread loop([&server] { server.run(); });

  {
    // A well-framed body that is not a session frame (wrong version byte).
    net::Socket raw = net::connect_unix(sock);
    Bytes body{0x7F, 0x01, 0x01, 0x00};
    Bytes wire;
    const auto len = static_cast<std::uint32_t>(body.size());
    wire.push_back(static_cast<std::uint8_t>(len & 0xFF));
    wire.push_back(static_cast<std::uint8_t>((len >> 8) & 0xFF));
    wire.push_back(static_cast<std::uint8_t>((len >> 16) & 0xFF));
    wire.push_back(static_cast<std::uint8_t>((len >> 24) & 0xFF));
    wire.insert(wire.end(), body.begin(), body.end());
    std::size_t written = 0;
    while (written < wire.size()) {
      written += raw.write_some(wire.data() + written, wire.size() - written);
    }
    // The server must close on us without replying.
    std::uint8_t buf[64];
    for (int i = 0; i < 1000; ++i) {
      const auto r = raw.read_some(buf, sizeof buf);
      ASSERT_EQ(r.n, 0u) << "server replied to a garbage frame";
      if (r.closed) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // The daemon survives and still serves well-behaved clients.
  Client client = Client::connect_unix(sock);
  client.open(request("after", "tree_aa", 9));
  const auto events = drain_client(client);
  server.request_drain();
  loop.join();

  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].result.ok);
  EXPECT_EQ(server.report().protocol_errors, 1u);
  EXPECT_TRUE(server.clean());
}

std::string run_workload_report(std::size_t threads) {
  const std::string sock =
      "server_ut_det_" + std::to_string(threads) + ".sock";
  ServerOptions opts;
  opts.unix_path = sock;
  opts.threads = threads;
  Server server(test_catalog(), std::move(opts));
  std::thread loop([&server] { server.run(); });

  Client client = Client::connect_unix(sock);
  const char* protocols[] = {"tree_aa", "real_aa", "block_aa", "paths_finder"};
  for (std::size_t i = 0; i < 16; ++i) {
    OpenRequest req = request(i % 3 == 0 ? "big" : "small",
                              protocols[i % std::size(protocols)], 40 + i);
    if (i % 2 == 1) req.inputs = InputKind::kRandom;
    client.open(req);
  }
  const auto events = drain_client(client);
  server.request_drain();
  loop.join();
  EXPECT_EQ(events.size(), 16u);
  EXPECT_TRUE(server.clean());
  return server.report().to_json(/*include_timings=*/false);
}

TEST(Server, CanonicalReportIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = run_workload_report(1);
  const std::string threaded = run_workload_report(4);
  EXPECT_EQ(serial, threaded);
  // And it carries the schema plus a timing-free body.
  EXPECT_NE(serial.find("treeaa.serve_report/1"), std::string::npos);
  EXPECT_EQ(serial.find("latency"), std::string::npos);
}

std::uint64_t fnv1a64(const Bytes& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// The encoded replies of one request per registry protocol, served by a
/// four-lane daemon (each request twice, so lanes run instances
/// concurrently), pinned across commits as FNV-1a 64 hashes. Every reply
/// must also equal a direct run_instance on the same request.
TEST(Server, ReplyBytesGoldenAtFourLanes) {
  struct Golden {
    const char* protocol;
    const char* adversary;
    std::uint64_t corrupt;
    std::uint64_t hash;
  };
  const Golden kGolden[] = {
      {"tree_aa", "fuzz", 2, 0xe8dc7a77b40ac716ull},
      {"iterated_tree_aa", "silent", 2, 0xd125ca8a5b71572dull},
      {"real_aa", "fuzz", 1, 0xca7328924d724166ull},
      {"iterated_real_aa", "silent", 2, 0x00663ce82afb53fcull},
      {"path_aa", "fuzz", 2, 0x9f6097dea32f845full},
      {"paths_finder", "silent", 2, 0x7a9682a3634994fbull},
      {"async_tree_aa", "silent", 1, 0x2e46ae3f1ece83dbull},
      {"block_aa", "fuzz", 2, 0x17792f65bd5dfacbull},
  };
  std::vector<OpenRequest> requests;
  for (const Golden& g : kGolden) {
    OpenRequest req = request("golden", g.protocol, 41);
    if (std::string(g.protocol) == "path_aa") req.topology = "line";
    req.adversary = g.adversary;
    req.corrupt = g.corrupt;
    req.inputs = InputKind::kRandom;
    requests.push_back(req);
  }

  Catalog catalog = test_catalog();
  Rng path_rng(1);
  catalog.add_tree("line", make_family_tree(TreeFamily::kPath, 9, path_rng));
  std::vector<Bytes> direct;
  for (const OpenRequest& req : requests) {
    direct.push_back(encode_result_reply(run_instance(catalog, req).reply));
  }

  const std::string sock = "server_ut_golden.sock";
  ServerOptions opts;
  opts.unix_path = sock;
  opts.threads = 4;
  Server server(std::move(catalog), std::move(opts));
  std::thread loop([&server] { server.run(); });
  Client client = Client::connect_unix(sock);
  std::vector<std::size_t> index_of(1);
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::uint64_t id = client.open(requests[i]);
      if (index_of.size() <= id) index_of.resize(id + 1);
      index_of[id] = i;
    }
  }
  const auto events = drain_client(client);
  server.request_drain();
  loop.join();

  ASSERT_EQ(events.size(), 2 * requests.size());
  for (const auto& event : events) {
    ASSERT_EQ(event.kind, Client::Event::Kind::kResult);
    const std::size_t i = index_of.at(event.session_id);
    SCOPED_TRACE(kGolden[i].protocol);
    const Bytes bytes = encode_result_reply(event.result);
    EXPECT_TRUE(event.result.ok);
    EXPECT_EQ(bytes, direct[i]);
    EXPECT_EQ(fnv1a64(bytes), kGolden[i].hash);
  }
  EXPECT_TRUE(server.clean());
}

}  // namespace
}  // namespace treeaa::serve
