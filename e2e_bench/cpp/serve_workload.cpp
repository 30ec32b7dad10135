// serve_open: an in-process serve::Server (two worker lanes, AF_UNIX)
// driven by an open-loop Poisson generator over two serve::Client
// connections from the main thread.
//
// The request pool mixes 60% tree_aa (n=7 on a 256-vertex random tree),
// 25% real_aa (n=16) and 15% block_aa (n=7 on a 120-vertex clique chain)
// over four tenants; its composition is fixed and the seed draws the
// order, the trees, the request seeds and the arrival times. Latency runs
// from the moment a request was due, so a stalled generator or server shows
// up as latency rather than as a lower offered rate.
//
// Untraced runs offer the lo rate for the whole window. Traced runs measure
// the lo rate on an untraced server and on a server with span capture (the
// difference is trace.overhead), then the hi rate, then a ladder of x1.1
// steps that finds the highest rate meeting the latency objective.
//
// Every reply must equal serve::run_instance on the same request, called
// directly after the window.
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <ctime>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "graphs/generators.h"
#include "layers.h"
#include "perf/tree_index.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trees/generators.h"

namespace treeaa::bench {

namespace {

constexpr std::size_t kServerThreads = 2;
constexpr double kLoRate = 1000.0;
constexpr double kHiRate = 2500.0;
constexpr double kLadderFactor = 1.1;
constexpr double kSloMs = 5.0;
constexpr std::size_t kTenants = 4;
constexpr std::size_t kRecordedSessions = 2000;
constexpr const char* kTree = "tree256";
constexpr const char* kGraph = "clique_chain120";

enum Kind : std::size_t { kTreeAA = 0, kRealAA = 1, kBlockAA = 2 };
constexpr std::array<const char*, 3> kKindNames = {"tree_aa", "real_aa",
                                                   "block_aa"};
constexpr std::array<std::size_t, 3> kKindCounts = {120, 50, 30};

serve::Catalog make_catalog(const LabeledTree& tree, const graphs::Graph& g) {
  serve::Catalog catalog;
  catalog.add_tree(kTree, tree);
  catalog.add_graph(kGraph, g);
  return catalog;
}

/// The seeded request pool, plus a reference catalog for direct
/// run_instance calls (the server owns its own copy).
struct RequestPool {
  explicit RequestPool(std::uint64_t seed)
      : tree([&] {
          Rng rng(seed);
          return make_random_tree(256, rng);
        }()),
        graph(graphs::make_clique_chain(120)),
        catalog(make_catalog(tree, graph)) {
    Rng rng(seed ^ 0x5E5E5E5Eull);
    for (std::size_t kind = 0; kind < kKindCounts.size(); ++kind) {
      for (std::size_t k = 0; k < kKindCounts[kind]; ++k) kinds.push_back(kind);
    }
    rng.shuffle(kinds);
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      serve::OpenRequest req;
      req.tenant = "tenant-" + std::to_string(i % kTenants);
      req.protocol = kKindNames[kinds[i]];
      req.seed = rng.next();
      req.adversary = "none";
      req.inputs = serve::InputKind::kRandom;
      if (kinds[i] == kRealAA) {
        req.n = 16;
        req.t = 5;
      } else {
        req.n = 7;
        req.t = 2;
        req.topology = kinds[i] == kTreeAA ? kTree : kGraph;
      }
      requests.push_back(std::move(req));
    }
  }

  LabeledTree tree;
  graphs::Graph graph;
  serve::Catalog catalog;
  std::vector<std::size_t> kinds;
  std::vector<serve::OpenRequest> requests;
};

/// Gives the load generator (the calling thread) the last CPU the process
/// started with and the server thread the others, so the generator never
/// competes with the server for a CPU and the scheduler cannot stack both
/// ends of a socket on one CPU. Threads the server spawns inherit its set.
/// No-op with fewer than three CPUs.
void split_cpus(std::thread& server) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  if (CPU_COUNT(&allowed) < 3) return;
  std::size_t last = 0;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  cpu_set_t rest = allowed;
  CPU_CLR(last, &rest);
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(last, &mine);
  pthread_setaffinity_np(server.native_handle(), sizeof(rest), &rest);
  pthread_setaffinity_np(pthread_self(), sizeof(mine), &mine);
}

/// The daemon under test with its two client connections.
class Rig {
 public:
  Rig(const RequestPool& pool, const std::string& socket_path,
      obs::SpanSink* spans)
      : socket_path_(socket_path) {
    ::unlink(socket_path_.c_str());
    serve::ServerOptions options;
    options.unix_path = socket_path_;
    options.threads = kServerThreads;
    options.spans = spans;
    server_ = std::make_unique<serve::Server>(
        make_catalog(pool.tree, pool.graph), std::move(options));
    loop_ = std::thread([this] { server_->run(); });
    split_cpus(loop_);
    try {
      for (auto& client : clients_) {
        client = std::make_unique<serve::Client>(
            serve::Client::connect_unix(socket_path_));
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Rig() { stop(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] serve::Client& client(std::size_t k) { return *clients_[k]; }
  [[nodiscard]] std::size_t clients() const { return clients_.size(); }

  /// Drains the server and joins its loop; the report is final afterwards.
  const serve::ServeReport& stop() {
    if (loop_.joinable()) {
      server_->request_drain();
      loop_.join();
    }
    return server_->report();
  }

 private:
  std::string socket_path_;
  std::unique_ptr<serve::Server> server_;
  std::thread loop_;
  std::array<std::unique_ptr<serve::Client>, 2> clients_;
};

/// One completed session.
struct Session {
  std::size_t request = 0;
  double rtt_ms = 0;
  serve::ResultReply reply;
};

/// What one constant-rate phase produced.
struct Phase {
  double rate = 0;
  std::vector<Session> sessions;
  std::vector<double> lag_ms;  // send time - due time, per request
  std::size_t sent = 0;
  std::size_t rejected = 0;
  std::size_t lost = 0;
  std::size_t backlog_max = 0;
  std::size_t backlog_end = 0;  // in flight when arrivals stopped

  [[nodiscard]] std::vector<double> rtts() const {
    std::vector<double> out;
    out.reserve(sessions.size());
    for (const Session& s : sessions) out.push_back(s.rtt_ms);
    return out;
  }
  /// p99 within the objective, nothing refused or lost, no backlog left
  /// beyond what the objective itself allows.
  [[nodiscard]] bool meets_slo() const {
    const double backlog_allowed = std::max(16.0, 2 * rate * kSloMs / 1000.0);
    return !sessions.empty() && rejected == 0 && lost == 0 &&
           percentile(rtts(), 99.0) <= kSloMs &&
           static_cast<double>(backlog_end) <= backlog_allowed;
  }
};

/// Open-loop Poisson arrivals at `rate` for `seconds`, cycling through the
/// pool from `cursor`; then waits (bounded) for the stragglers.
Phase drive(Rig& rig, const RequestPool& pool, Rng& arrivals, double rate,
            double seconds, std::size_t& cursor, obs::SpanSink* spans,
            std::size_t& recorded) {
  struct InFlight {
    std::size_t request;
    Clock::time_point due;
  };
  Phase phase;
  phase.rate = rate;
  std::array<std::map<std::uint64_t, InFlight>, 2> inflight;
  std::size_t outstanding = 0;
  const auto exp_gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - arrivals.unit()) / rate));
  };
  const auto start = Clock::now();
  const auto stop_arrivals =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto give_up = stop_arrivals + std::chrono::seconds(2);
  // Converts steady-clock time points to the sink's timeline.
  const std::int64_t span_offset_ns =
      spans == nullptr
          ? 0
          : static_cast<std::int64_t>(spans->now_ns()) -
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now().time_since_epoch())
                    .count();
  auto due = start + exp_gap();
  std::vector<serve::Client::Event> events;
  bool arrivals_open = true;
  while (true) {
    auto now = Clock::now();
    while (arrivals_open && due <= now) {
      if (due >= stop_arrivals) {
        arrivals_open = false;
        phase.backlog_end = outstanding;
        break;
      }
      const std::size_t k = phase.sent % rig.clients();
      const std::size_t request = cursor++ % pool.requests.size();
      const std::uint64_t sid = rig.client(k).open(pool.requests[request]);
      inflight[k].emplace(sid, InFlight{request, due});
      phase.lag_ms.push_back(ms_between(due, now));
      ++phase.sent;
      ++outstanding;
      phase.backlog_max = std::max(phase.backlog_max, outstanding);
      due += exp_gap();
    }
    if (!arrivals_open && outstanding == 0) break;
    if (!arrivals_open && now >= give_up) break;

    std::array<pollfd, 2> fds{};
    for (std::size_t k = 0; k < rig.clients(); ++k) {
      fds[k].fd = rig.client(k).fd();
      fds[k].events = static_cast<short>(
          POLLIN | (rig.client(k).wants_write() ? POLLOUT : 0));
    }
    const auto wake = arrivals_open ? due : give_up;
    const auto wait_ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
               .count());
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wait_ns % 1'000'000'000);
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);

    for (std::size_t k = 0; k < rig.clients(); ++k) {
      events.clear();
      rig.client(k).pump(events);
      const auto done = Clock::now();
      for (const serve::Client::Event& event : events) {
        const auto it = inflight[k].find(event.session_id);
        if (it == inflight[k].end()) continue;
        const InFlight f = it->second;
        inflight[k].erase(it);
        --outstanding;
        if (event.kind == serve::Client::Event::Kind::kResult) {
          phase.sessions.push_back(
              Session{f.request, ms_between(f.due, done), event.result});
          if (spans != nullptr && recorded < kRecordedSessions) {
            ++recorded;
            const auto to_sink = [&](Clock::time_point tp) {
              return static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      tp.time_since_epoch())
                      .count() +
                  span_offset_ns);
            };
            spans->complete(
                spans->track("treeaa_bench", "sessions"),
                std::string(pool.requests[f.request].protocol),
                to_sink(f.due), to_sink(done),
                "{\"op\":" + std::to_string(event.session_id) + "}");
          }
        } else if (event.kind == serve::Client::Event::Kind::kReject) {
          ++phase.rejected;
        } else {
          ++phase.lost;
        }
      }
    }
  }
  phase.lost += outstanding;
  return phase;
}

/// Direct serve::run_instance results (and their times) for the pool.
struct References {
  std::vector<serve::ResultReply> replies;
  std::vector<double> execute_us;
};

References compute_references(const RequestPool& pool) {
  References refs;
  for (const serve::OpenRequest& req : pool.requests) {
    const auto start = Clock::now();
    const serve::InstanceResult r = serve::run_instance(pool.catalog, req);
    refs.execute_us.push_back(ms_between(start, Clock::now()) * 1000.0);
    refs.replies.push_back(r.reply);
  }
  return refs;
}

bool same_reply(const serve::ResultReply& a, const serve::ResultReply& b) {
  return a.rounds == b.rounds && a.messages == b.messages &&
         a.corrupt == b.corrupt && a.ok == b.ok && a.valid == b.valid &&
         a.one_agreement == b.one_agreement && a.spread == b.spread &&
         a.outputs_hash == b.outputs_hash;
}

/// Counts every session of `phase` as an op: refused and lost sessions
/// fail, and so does any reply that differs from the direct run_instance
/// result or fails its agreement check.
void verify(Report& report, const Phase& phase, const References& refs) {
  for (const Session& s : phase.sessions) {
    const serve::ResultReply& ref = refs.replies[s.request];
    report.op(s.reply.ok && same_reply(s.reply, ref),
              "session for request " + std::to_string(s.request) +
                  (s.reply.ok ? " differs from run_instance"
                              : " failed its agreement check"));
  }
  for (std::size_t i = 0; i < phase.rejected; ++i) {
    report.op(false, "session refused at " + std::to_string(phase.rate) + "/s");
  }
  for (std::size_t i = 0; i < phase.lost; ++i) {
    report.op(false, "session lost at " + std::to_string(phase.rate) + "/s");
  }
}

/// Session codec cost: each pool request's Open payload and its reply's
/// Result payload, encoded and decoded (median of three passes).
CodecTiming time_session_codecs(const RequestPool& pool,
                                const References& refs) {
  CodecTiming out;
  std::vector<Bytes> opens;
  std::vector<Bytes> results;
  for (std::size_t i = 0; i < pool.requests.size(); ++i) {
    opens.push_back(serve::encode_open_request(pool.requests[i]));
    results.push_back(serve::encode_result_reply(refs.replies[i]));
    out.bytes += opens.back().size() + results.back().size();
  }
  out.messages = opens.size() + results.size();
  std::array<double, 3> enc{};
  std::array<double, 3> dec{};
  std::size_t sink = 0;
  for (std::size_t run = 0; run < enc.size(); ++run) {
    auto start = Clock::now();
    for (std::size_t i = 0; i < pool.requests.size(); ++i) {
      sink += serve::encode_open_request(pool.requests[i]).size();
      sink += serve::encode_result_reply(refs.replies[i]).size();
    }
    enc[run] = ns_between(start, Clock::now());
    start = Clock::now();
    for (std::size_t i = 0; i < opens.size(); ++i) {
      sink += serve::decode_open_request(opens[i]).has_value() ? 1u : 0u;
      sink += serve::decode_result_reply(results[i]).has_value() ? 1u : 0u;
    }
    dec[run] = ns_between(start, Clock::now());
  }
  if (sink == 0) out.messages = 0;
  std::sort(enc.begin(), enc.end());
  std::sort(dec.begin(), dec.end());
  out.encode_ns = enc[1];
  out.decode_ns = dec[1];
  return out;
}

/// A rig that has answered a first burst of sessions.
struct Fixture {
  Fixture(std::uint64_t seed, const std::string& socket_path)
      : pool(seed), rig(pool, socket_path, nullptr) {
    // One session per pool request before the window opens.
    for (std::size_t i = 0; i < pool.requests.size(); ++i) {
      rig.client(i % rig.clients()).open(pool.requests[i]);
    }
    for (int spin = 0; spin < 10000; ++spin) {
      if (rig.client(0).inflight() + rig.client(1).inflight() == 0) break;
      for (std::size_t k = 0; k < rig.clients(); ++k) {
        (void)rig.client(k).wait(1);
      }
    }
  }

  RequestPool pool;
  Rig rig;
};

}  // namespace

void run_serve_open(const Options& opts, Report& report) {
  host_notes(report, kServerThreads);
  report.note("server_lanes", std::to_string(kServerThreads));
  report.note("client_threads", "1");
  auto fixture = timed_setup<Fixture>(report, [&] {
    return std::make_unique<Fixture>(opts.seed, opts.socket_path);
  });
  const RequestPool& pool = fixture->pool;
  Rng arrivals(opts.seed ^ 0xA221A1ull);
  std::size_t cursor = 0;
  std::size_t recorded = 0;

  if (!opts.traced) {
    const Phase lo = drive(fixture->rig, pool, arrivals, kLoRate, opts.seconds,
                           cursor, nullptr, recorded);
    fixture->rig.stop();
    const References refs = compute_references(pool);
    verify(report, lo, refs);
    Fnv hash;
    double messages = 0, bytes = 0, rounds = 0;
    for (std::size_t i = 0; i < pool.requests.size(); ++i) {
      hash.add(refs.replies[i].outputs_hash);
      messages += static_cast<double>(refs.replies[i].messages);
      rounds += static_cast<double>(refs.replies[i].rounds);
      bytes += static_cast<double>(
          serve::encode_open_request(pool.requests[i]).size() +
          serve::encode_result_reply(refs.replies[i]).size());
    }
    report.outputs_hash = hash.value();
    const auto per_op = [&](double total) {
      return total / static_cast<double>(pool.requests.size());
    };
    report.metric("ops_per_s",
                  static_cast<double>(lo.sessions.size()) / opts.seconds,
                  "ops/s", lo.sessions.size());
    latency_metrics(report, lo.rtts());
    report.metric("msgs_per_op", per_op(messages), "count",
                  pool.requests.size());
    report.metric("bytes_per_op", per_op(bytes), "bytes", pool.requests.size());
    report.metric("rounds_per_op", per_op(rounds), "count",
                  pool.requests.size());
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("gen.lag_ms_p99", std::to_string(percentile(lo.lag_ms, 99.0)));
    return;
  }

  // Traced: lo on the untraced server, then a fresh server with spans.
  const double slice = opts.seconds / 5.0;
  const Phase lo_plain = drive(fixture->rig, pool, arrivals, kLoRate, slice,
                               cursor, nullptr, recorded);
  fixture->rig.stop();
  obs::SpanSink spans;
  Rig rig(pool, opts.socket_path + ".traced", &spans);
  const Phase lo = drive(rig, pool, arrivals, kLoRate, slice, cursor, &spans,
                         recorded);
  const Phase hi = drive(rig, pool, arrivals, kHiRate, slice, cursor, &spans,
                         recorded);
  // The ladder brackets the highest rate meeting the objective to within
  // one x1.1 step: upward from hi while hi holds, else downward from hi
  // until a step holds, within the rest of the window.
  std::vector<Phase> ladder;
  double max_rate = lo.meets_slo() ? kLoRate : 0.0;
  const double step = std::max(0.25, opts.seconds / 15.0);
  const auto climb = [&](double rate) {
    ladder.push_back(
        drive(rig, pool, arrivals, rate, step, cursor, &spans, recorded));
    return ladder.back().meets_slo();
  };
  double budget = 2 * slice;
  if (max_rate > 0 && hi.meets_slo()) {
    max_rate = kHiRate;
    for (double rate = kHiRate * kLadderFactor; budget >= step;
         rate *= kLadderFactor, budget -= step) {
      if (!climb(rate)) break;
      max_rate = rate;
    }
  } else if (max_rate > 0) {
    for (double rate = kHiRate / kLadderFactor;
         rate > kLoRate && budget >= step;
         rate /= kLadderFactor, budget -= step) {
      if (climb(rate)) {
        max_rate = rate;
        break;
      }
    }
  }
  const serve::ServeReport& served = rig.stop();
  const References refs = compute_references(pool);
  verify(report, lo_plain, refs);
  verify(report, lo, refs);
  verify(report, hi, refs);
  for (const Phase& rung : ladder) {
    // Refusals and losses past capacity are what ends the ladder; only the
    // replies that did arrive must be right.
    for (const Session& s : rung.sessions) {
      report.op(s.reply.ok && same_reply(s.reply, refs.replies[s.request]),
                "ladder session differs from run_instance");
    }
  }

  LayerFigures figures;
  // TreeIndex builds a tree_aa or block_aa session pays, per kind.
  std::array<double, 3> index_ns{};
  {
    std::vector<double> runs;
    for (int r = 0; r < 5; ++r) {
      const auto start = Clock::now();
      const perf::TreeIndex index(pool.tree);
      runs.push_back(ns_between(start, Clock::now()));
    }
    index_ns[kTreeAA] = median(runs);
    runs.clear();
    const graphs::BlockIndex& block = *pool.catalog.graph(kGraph);
    for (int r = 0; r < 5; ++r) {
      const auto start = Clock::now();
      const perf::TreeIndex index(block.agreement_tree());
      runs.push_back(ns_between(start, Clock::now()));
    }
    index_ns[kBlockAA] = median(runs);
  }
  std::array<std::vector<double>, 3> rtt_by_kind;
  std::array<std::vector<double>, 3> exec_by_kind;
  std::vector<double> overhead_ms;
  std::vector<double> rtts;
  for (const Session& s : lo.sessions) {
    const std::size_t kind = pool.kinds[s.request];
    rtt_by_kind[kind].push_back(s.rtt_ms);
    exec_by_kind[kind].push_back(refs.execute_us[s.request] / 1000.0);
    overhead_ms.push_back(s.rtt_ms - refs.execute_us[s.request] / 1000.0);
    rtts.push_back(s.rtt_ms);
    figures.op_ns += s.rtt_ms * 1e6;
    figures.tree_index_ns += index_ns[kind];
  }
  for (std::size_t kind = 0; kind < 3; ++kind) {
    const double rtt = median(rtt_by_kind[kind]);
    figures.serve_execute_share[kind] =
        rtt > 0 ? median(exec_by_kind[kind]) / rtt : 0.0;
  }
  const double rtt_p50 = median(rtts);
  figures.serve_overhead_share =
      rtt_p50 > 0 ? median(overhead_ms) / rtt_p50 : 0.0;
  std::uint64_t tenant_busy = 0, queue_full = 0;
  for (const auto& [name, stats] : served.table.tenants) {
    const auto busy = stats.rejects.find("tenant_busy");
    if (busy != stats.rejects.end()) tenant_busy += busy->second;
    const auto full = stats.rejects.find("queue_full");
    if (full != stats.rejects.end()) queue_full += full->second;
  }
  figures.serve_rejects_tenant_busy = static_cast<double>(tenant_busy);
  figures.serve_rejects_queue_full = static_cast<double>(queue_full);
  const double lo_p99 = percentile(rtts, 99.0);
  figures.serve_p99_hi_over_lo =
      lo_p99 > 0 ? percentile(hi.rtts(), 99.0) / lo_p99 : 0.0;
  figures.serve_max_rate_slo = max_rate;
  for (const Phase* p : {&lo, &hi}) {
    for (const double lag : p->lag_ms) {
      if (lag >= 1.0) ++figures.gen_late_sends;
    }
    figures.gen_backlog_max =
        std::max(figures.gen_backlog_max, static_cast<double>(p->backlog_max));
  }
  double messages = 0, rounds = 0;
  for (const serve::ResultReply& r : refs.replies) {
    messages += static_cast<double>(r.messages);
    rounds += static_cast<double>(r.rounds);
  }
  figures.msgs_per_round = rounds > 0 ? messages / rounds : 0.0;
  figures.codec = time_session_codecs(pool, refs);
  figures.trace_overhead = rtt_p50 / median(lo_plain.rtts()) - 1.0;
  latency_metrics(report, lo_plain.rtts());
  emit_layer_metrics(report, figures);

  // Human-readable extras: the absolute numbers behind the shares.
  report.note("op_ms_p50.hi", std::to_string(percentile(hi.rtts(), 50.0)));
  report.note("op_ms_p99.hi", std::to_string(percentile(hi.rtts(), 99.0)));
  report.note("gen.lag_ms_p99",
              std::to_string(percentile(lo.lag_ms, 99.0)));
  for (std::size_t kind = 0; kind < 3; ++kind) {
    report.note(std::string("serve.execute_us_p50.") + kKindNames[kind],
                std::to_string(median(exec_by_kind[kind]) * 1000.0));
  }
  report.note("serve.overhead_us_p50",
              std::to_string(median(overhead_ms) * 1000.0));
  report.note("ladder_steps", std::to_string(ladder.size()));
  if (!opts.span_path.empty() && !write_spans(spans, opts.span_path)) {
    report.op(false, "cannot write " + opts.span_path);
  }
}

}  // namespace treeaa::bench
