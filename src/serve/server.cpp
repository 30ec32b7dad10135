#include "serve/server.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <system_error>
#include <utility>
#include <vector>

#include "common/check.h"
#include "perf/parallel.h"

namespace treeaa::serve {

namespace {

void epoll_update(int epoll_fd, int op, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd, op, fd, &ev) != 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_ctl");
  }
}

}  // namespace

std::uint64_t Server::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Server::Server(Catalog catalog, ServerOptions opts)
    : catalog_(std::move(catalog)), opts_(std::move(opts)) {
  TREEAA_REQUIRE_MSG(!opts_.unix_path.empty() || opts_.tcp_port.has_value(),
                     "server needs at least one listener");
  TREEAA_REQUIRE(opts_.max_batch > 0 && opts_.max_queue > 0 &&
                 opts_.max_inflight_per_tenant > 0);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  }

  int pipe_fds[2] = {-1, -1};
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::system_error(errno, std::generic_category(), "pipe2");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  epoll_update(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, EPOLLIN);

  if (!opts_.unix_path.empty()) {
    unix_listener_ = net::make_unix_listener(opts_.unix_path);
    epoll_update(epoll_fd_, EPOLL_CTL_ADD, unix_listener_.fd(), EPOLLIN);
  }
  if (opts_.tcp_port.has_value()) {
    tcp_listener_ = net::make_tcp_listener(*opts_.tcp_port);
    resolved_tcp_port_ = net::local_tcp_port(tcp_listener_);
    epoll_update(epoll_fd_, EPOLL_CTL_ADD, tcp_listener_.fd(), EPOLLIN);
  }

  if (opts_.spans != nullptr) {
    loop_track_ = opts_.spans->track("serve", "loop");
    have_loop_track_ = true;
  }
}

Server::~Server() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  if (!opts_.unix_path.empty() && unix_listener_.valid()) {
    ::unlink(opts_.unix_path.c_str());
  }
}

void Server::request_drain() {
  // Async-signal-safe: a single write on the pre-opened pipe. The loop
  // treats any readable byte as the drain request; duplicate writes (a
  // second SIGTERM) are harmless.
  const char byte = 'd';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void Server::begin_drain() {
  if (draining_) return;
  draining_ = true;
  if (listeners_open_) {
    if (unix_listener_.valid()) {
      epoll_update(epoll_fd_, EPOLL_CTL_DEL, unix_listener_.fd(), 0);
    }
    if (tcp_listener_.valid()) {
      epoll_update(epoll_fd_, EPOLL_CTL_DEL, tcp_listener_.fd(), 0);
    }
    listeners_open_ = false;
  }
  if (have_loop_track_) {
    opts_.spans->instant(loop_track_, "drain", opts_.spans->now_ns());
  }
}

void Server::accept_all(net::Socket& listener) {
  while (true) {
    net::Socket sock = net::accept_connection(listener);
    if (!sock.valid()) return;
    const std::uint64_t id = next_conn_id_++;
    const int fd = sock.fd();
    Conn conn;
    conn.sock = std::move(sock);
    conns_.emplace(id, std::move(conn));
    conn_by_fd_.emplace(fd, id);
    epoll_update(epoll_fd_, EPOLL_CTL_ADD, fd, EPOLLIN);
    ++report_.accepted_connections;
    if (have_loop_track_) {
      opts_.spans->instant(loop_track_, "accept", opts_.spans->now_ns());
    }
  }
}

void Server::kill_conn(Conn& conn) {
  conn.dead = true;
  conn.out.clear();
}

void Server::read_conn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.dead) return;

  std::array<std::uint8_t, 64 * 1024> buf;
  while (true) {
    const auto r = conn.sock.read_some(buf.data(), buf.size());
    if (r.n > 0) conn.reader.feed(buf.data(), r.n);
    if (r.closed) {
      kill_conn(conn);
      break;
    }
    if (r.n == 0) break;
  }

  while (!conn.dead) {
    const auto body = conn.reader.next_body();
    if (!body.has_value()) {
      if (conn.reader.poisoned()) {
        ++report_.protocol_errors;
        kill_conn(conn);
      }
      break;
    }
    const auto frame = net::decode_session_frame_body(*body);
    if (!frame.has_value() || frame->kind != kOpenKind) {
      // Fail closed: an unparseable session frame, an unknown header
      // version, or a frame kind a client must never send — the stream can
      // no longer be trusted to mean what this build thinks it means.
      ++report_.protocol_errors;
      kill_conn(conn);
      break;
    }
    auto req = decode_open_request(frame->payload);
    if (!req.has_value()) {
      // The session header parsed but the Open payload did not: same
      // verdict, the client is speaking a different dialect.
      ++report_.protocol_errors;
      kill_conn(conn);
      break;
    }
    handle_open(conn_id, frame->session_id, std::move(*req));
  }

  // Rejects issued while parsing (validation, draining, admission) queue
  // bytes without going through run_batch; push them now so a connection
  // that only ever gets rejected still hears back.
  flush_conn(conn_id);
}

void Server::handle_open(std::uint64_t conn_id, std::uint64_t session_id,
                         OpenRequest req) {
  const std::string tenant = req.tenant.empty() ? "(anonymous)" : req.tenant;

  if (draining_) {
    send_reject(conn_id, session_id, tenant, RejectCode::kDraining,
                "server is draining");
    return;
  }
  std::string detail;
  if (const auto code = validate_request(catalog_, req, &detail)) {
    send_reject(conn_id, session_id, tenant, *code, std::move(detail));
    return;
  }
  if (tenant_inflight_[tenant] >= opts_.max_inflight_per_tenant) {
    send_reject(conn_id, session_id, tenant, RejectCode::kTenantBusy,
                "per-tenant in-flight cap reached");
    return;
  }
  if (queue_.size() >= opts_.max_queue) {
    send_reject(conn_id, session_id, tenant, RejectCode::kQueueFull,
                "instance queue is full");
    return;
  }

  ++tenant_inflight_[tenant];
  ++report_.table.tenant(tenant).started;
  Pending pending;
  pending.conn_id = conn_id;
  pending.session_id = session_id;
  pending.req = std::move(req);
  pending.req.tenant = tenant;
  pending.enqueue_ns = now_ns();
  queue_.push_back(std::move(pending));
}

void Server::send_frame(Conn& conn, std::uint64_t session_id,
                        std::uint8_t kind, Bytes payload) {
  if (conn.dead) return;
  // Header by copy, encoded payload as its own chunk — byte-identical to
  // append_wire_session_frame without restaging the payload.
  Bytes header;
  net::append_session_frame_header(header, session_id, kind, payload.size());
  conn.out.append(header.data(), header.size());
  conn.out.append_owned(std::move(payload));
}

void Server::send_reject(std::uint64_t conn_id, std::uint64_t session_id,
                         const std::string& tenant, RejectCode code,
                         std::string detail) {
  auto& stats = report_.table.tenant(tenant);
  ++stats.rejected;
  ++stats.rejects[reject_code_name(code)];
  if (code == RejectCode::kInternal) ++internal_errors_;
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) return;
  RejectReply reply;
  reply.code = code;
  reply.detail = std::move(detail);
  send_frame(it->second, session_id, kRejectKind, encode_reject_reply(reply));
  if (have_loop_track_) {
    opts_.spans->instant(loop_track_, "reject", opts_.spans->now_ns());
  }
}

void Server::run_batch() {
  const std::size_t count = std::min(queue_.size(), opts_.max_batch);
  const std::uint64_t dispatch_begin =
      have_loop_track_ ? opts_.spans->now_ns() : 0;
  std::vector<Pending> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }

  auto lease = perf::WorkerPool::lease(opts_.threads);
  const std::size_t lanes = lease ? lease.get()->lanes() : 1;

  std::vector<InstanceResult> results(count);
  // Lane-local staging: each lane folds its instances' canonical
  // observations into a private fragment; no shared mutable state inside
  // the dispatch. Folding the fragments in lane order afterwards is
  // order-insensitive anyway (every aggregate is commutative), which is
  // what keeps the canonical report identical at any lane count.
  std::vector<TenantTable> staging(lanes);
  obs::SpanSink* spans = opts_.spans;

  const auto slice = [&](std::size_t lane, std::size_t begin,
                         std::size_t end) {
    obs::TrackId lane_track{};
    std::uint64_t run_begin = 0;
    if (spans != nullptr) {
      lane_track = spans->track("serve", "lane " + std::to_string(lane));
      run_begin = spans->now_ns();
    }
    for (std::size_t i = begin; i < end; ++i) {
      results[i] = run_instance(catalog_, batch[i].req, opts_.ledger);
      if (results[i].error.empty()) {
        auto& stats = staging[lane].tenant(batch[i].req.tenant);
        ++stats.completed;
        if (!results[i].reply.ok) ++stats.check_failures;
        stats.ledger_violations += results[i].ledger_violations;
        stats.rounds_total += results[i].reply.rounds;
        stats.messages_total += results[i].reply.messages;
        stats.rounds.observe(static_cast<double>(results[i].reply.rounds));
      }
    }
    if (spans != nullptr && begin < end) {
      spans->complete(lane_track, "run", run_begin, spans->now_ns());
    }
  };

  lease.run(count, slice);

  for (const TenantTable& fragment : staging) report_.table.merge(fragment);

  const std::uint64_t reply_begin =
      have_loop_track_ ? opts_.spans->now_ns() : 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Pending& pending = batch[i];
    auto inflight = tenant_inflight_.find(pending.req.tenant);
    if (inflight != tenant_inflight_.end() && inflight->second > 0) {
      --inflight->second;
    }
    if (!results[i].error.empty()) {
      send_reject(pending.conn_id, pending.session_id, pending.req.tenant,
                  RejectCode::kInternal, results[i].error);
      continue;
    }
    report_.table.tenant(pending.req.tenant)
        .latency_ns.observe(
            static_cast<double>(now_ns() - pending.enqueue_ns));
    const auto it = conns_.find(pending.conn_id);
    if (it == conns_.end() || it->second.dead) continue;
    send_frame(it->second, pending.session_id, kResultKind,
               encode_result_reply(results[i].reply));
  }

  if (have_loop_track_) {
    opts_.spans->complete(loop_track_, "dispatch", dispatch_begin,
                          reply_begin);
    opts_.spans->complete(loop_track_, "reply", reply_begin,
                          opts_.spans->now_ns());
  }

  // Push what we can immediately; EPOLLOUT picks up the rest.
  for (std::size_t i = 0; i < count; ++i) flush_conn(batch[i].conn_id);
}

void Server::update_write_interest(std::uint64_t conn_id, Conn& conn) {
  (void)conn_id;
  const bool pending = !conn.out.empty();
  if (pending == conn.want_write || conn.dead) return;
  conn.want_write = pending;
  epoll_update(epoll_fd_, EPOLL_CTL_MOD, conn.sock.fd(),
               pending ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
}

void Server::flush_conn(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.dead) return;
  try {
    conn.out.flush(conn.sock);
  } catch (const std::system_error&) {
    kill_conn(conn);
    return;
  }
  update_write_interest(conn_id, conn);
}

void Server::reap_dead() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (!it->second.dead) {
      ++it;
      continue;
    }
    conn_by_fd_.erase(it->second.sock.fd());
    ++report_.closed_connections;
    it = conns_.erase(it);  // closes the fd; the kernel drops it from epoll
  }
}

void Server::run() {
  std::array<epoll_event, 64> events;
  while (true) {
    if (draining_ && queue_.empty()) {
      bool pending_writes = false;
      for (const auto& [id, conn] : conns_) {
        if (!conn.dead && !conn.out.empty()) {
          pending_writes = true;
          break;
        }
      }
      if (!pending_writes) break;
    }

    const int timeout = queue_.empty() ? -1 : 0;
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "epoll_wait");
    }

    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
      if (fd == wake_read_fd_) {
        std::array<char, 64> sink;
        while (::read(wake_read_fd_, sink.data(), sink.size()) > 0) {
        }
        begin_drain();
        continue;
      }
      if (listeners_open_ && unix_listener_.valid() &&
          fd == unix_listener_.fd()) {
        accept_all(unix_listener_);
        continue;
      }
      if (listeners_open_ && tcp_listener_.valid() &&
          fd == tcp_listener_.fd()) {
        accept_all(tcp_listener_);
        continue;
      }
      const auto by_fd = conn_by_fd_.find(fd);
      if (by_fd == conn_by_fd_.end()) continue;
      const std::uint64_t conn_id = by_fd->second;
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        const auto it = conns_.find(conn_id);
        if (it != conns_.end()) {
          // Drain any bytes the peer pushed before closing, then let the
          // read path observe EOF and mark the connection dead.
          read_conn(conn_id);
          if (!it->second.dead) kill_conn(it->second);
        }
        continue;
      }
      if ((ev & EPOLLIN) != 0) read_conn(conn_id);
      if ((ev & EPOLLOUT) != 0) flush_conn(conn_id);
    }

    if (!queue_.empty()) run_batch();
    reap_dead();
  }

  for (auto& [id, conn] : conns_) {
    if (!conn.dead) kill_conn(conn);
  }
  reap_dead();
}

}  // namespace treeaa::serve
