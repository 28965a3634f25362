#include "serve/http_server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "util/failpoint.hpp"
#include "util/mutex.hpp"

namespace sgm::serve {

namespace {
using Clock = std::chrono::steady_clock;
using http::HttpRequest;
using http::ParseStatus;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}
}  // namespace

// ---------------------------------------------------------------------------
// Reactor: one epoll loop owning a share of the connections. Everything in
// here except the inbox (mu/done_inbox/conn_inbox/parked) is touched only
// by the owning reactor thread. Batcher completions and cross-reactor
// connection handoffs go through the inbox; the writer rings the eventfd
// only when the reactor is actually parked in epoll_wait, so the steady-
// state completion path is one mutex'd vector push, no syscall.
// ---------------------------------------------------------------------------

struct HttpServer::Reactor {
  HttpServer* srv = nullptr;
  std::size_t index = 0;
  int epfd = -1;
  int wake_fd = -1;  ///< eventfd; epoll data.u64 == kWakeId

  /// Connections keyed by id (epoll data.u64 carries the id, not a pointer,
  /// so a stale readiness event for a just-closed connection misses the map
  /// instead of dereferencing freed memory).
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
  std::uint64_t next_id = 2;  ///< 0 = listener, 1 = eventfd
  std::uint64_t rr = 0;       ///< round-robin accept distribution (reactor 0)

  /// Idle wheel: with one uniform timeout, deadlines are pushed in nearly
  /// monotone order, so a deque + lazy recheck replaces a timer heap. An
  /// entry whose connection was active since it was pushed is re-enqueued
  /// at the connection's real deadline; a stale entry (closed conn) is
  /// dropped. Expiry therefore fires within [timeout, 2*timeout) — a
  /// coarse guard, not a precise timer.
  std::deque<std::pair<Clock::time_point, std::uint64_t>> wheel;

  /// Connections (by id) that produced output this cycle; flushed once per
  /// loop iteration so many completions on one connection coalesce into a
  /// single write.
  std::vector<std::uint64_t> dirty;

  struct Done {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    InferenceBatcher::Response resp;
    QueryError error = QueryError::kNone;
    std::string message;
  };
  util::Mutex mu;
  std::vector<Done> done_inbox SGM_GUARDED_BY(mu);
  std::vector<util::TcpSocket> conn_inbox SGM_GUARDED_BY(mu);
  /// True exactly while the reactor sits in epoll_wait — inbox writers only
  /// pay the eventfd syscall when someone is actually asleep.
  bool parked SGM_GUARDED_BY(mu) = false;

  std::thread thread;

  ~Reactor() {
    if (wake_fd >= 0) ::close(wake_fd);
    if (epfd >= 0) ::close(epfd);
  }
};

namespace {
constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kWakeId = 1;
constexpr int kMaxEvents = 64;
}  // namespace

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

HttpServer::HttpServer(ModelRegistry& registry, InferenceBatcher& batcher,
                       ServeMetrics& metrics, HttpServerOptions opt)
    : registry_(registry),
      batcher_(batcher),
      metrics_(metrics),
      opt_(opt),
      listener_(opt.port) {
  if (opt_.num_reactors == 0)
    throw std::invalid_argument("HttpServer: num_reactors must be >= 1");
  if (opt_.max_pipeline == 0)
    throw std::invalid_argument("HttpServer: max_pipeline must be >= 1");
  listener_.set_nonblocking(true);
  reactors_.reserve(opt_.num_reactors);
  for (std::size_t i = 0; i < opt_.num_reactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->srv = this;
    r->index = i;
    r->epfd = ::epoll_create1(0);
    if (r->epfd < 0)
      throw std::runtime_error("HttpServer: epoll_create1 failed");
    r->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (r->wake_fd < 0)
      throw std::runtime_error("HttpServer: eventfd failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeId;
    ::epoll_ctl(r->epfd, EPOLL_CTL_ADD, r->wake_fd, &ev);
    if (i == 0) {
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.u64 = kListenerId;
      ::epoll_ctl(r->epfd, EPOLL_CTL_ADD, listener_.fd(), &lev);
    }
    reactors_.push_back(std::move(r));
  }
  for (auto& r : reactors_)
    r->thread = std::thread([this, rp = r.get()] { reactor_loop(*rp); });
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  if (hard_stop_.load(std::memory_order_acquire)) return;
  // Phase 1 — graceful drain: refuse new connections (listener closed,
  // /healthz flips to "draining"), then answer what was already accepted
  // for up to drain_deadline_s. Each connection closes at its next request
  // boundary once draining_ is set.
  draining_.store(true, std::memory_order_seq_cst);
  listener_.close();
  for (auto& r : reactors_) wake(*r);
  util::WallTimer drain_timer;
  while (drain_timer.elapsed_s() < opt_.drain_deadline_s) {
    if (reactor_conns_.load(std::memory_order_acquire) == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Phase 2 — hard stop: whatever didn't drain in time is dropped.
  if (hard_stop_.exchange(true, std::memory_order_seq_cst))
    return;  // lost a race with a concurrent stop(); it joins
  for (auto& r : reactors_) wake(*r);
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  // In-flight query_async completions touch the reactors' inboxes; the
  // reactors (and this server) must outlive every one of them.
  while (outstanding_.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
}

// ---------------------------------------------------------------------------
// Reactor loop
// ---------------------------------------------------------------------------

void HttpServer::wake(Reactor& r) {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t w = ::write(r.wake_fd, &one, sizeof(one));
}

void HttpServer::on_query_done(void* ctx, std::uint64_t conn_id,
                               std::uint64_t seq,
                               InferenceBatcher::Response&& resp,
                               QueryError error, const std::string& message) {
  auto* r = static_cast<Reactor*>(ctx);
  HttpServer* srv = r->srv;
  bool need_wake = false;
  {
    util::MutexLock lock(r->mu);
    r->done_inbox.push_back(
        Reactor::Done{conn_id, seq, std::move(resp), error, message});
    need_wake = r->parked;
  }
  if (need_wake) srv->wake(*r);
  // Last touch of the reactor: stop() spins on outstanding_ before letting
  // the reactors (or this server) die.
  srv->outstanding_.fetch_sub(1, std::memory_order_release);
}

void HttpServer::adopt_connection(Reactor& r, util::TcpSocket sock) {
  // accept_nb hands the fd over already nonblocking (accept4).
  const std::uint64_t id = r.next_id++;
  auto conn = std::make_unique<Connection>(std::move(sock), id);
  Connection& c = *conn;
  r.conns.emplace(id, std::move(conn));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  ::epoll_ctl(r.epfd, EPOLL_CTL_ADD, c.sock.fd(), &ev);
  r.wheel.emplace_back(Clock::now() + to_duration(opt_.recv_timeout_s), id);
  metrics_.open_connections.fetch_add(1, std::memory_order_relaxed);
  reactor_conns_.fetch_add(1, std::memory_order_relaxed);
  if (draining_.load(std::memory_order_relaxed)) {
    // Handed off after the drain began: nothing was read yet, close it.
    c.parse_stopped = true;
    mark_dirty(r, c);
  }
}

void HttpServer::close_connection(Reactor& r, Connection& c) {
  ::epoll_ctl(r.epfd, EPOLL_CTL_DEL, c.sock.fd(), nullptr);
  metrics_.open_connections.fetch_sub(1, std::memory_order_relaxed);
  reactor_conns_.fetch_sub(1, std::memory_order_relaxed);
  r.conns.erase(c.id);  // destroys c — must be the last touch
}

void HttpServer::accept_ready(Reactor& r) {
  for (;;) {
    bool would_block = false;
    util::TcpSocket sock = listener_.accept_nb(would_block);
    if (!sock.valid()) return;  // would-block, closed or transient error
    sock.set_nodelay(true);
    Reactor& target = *reactors_[r.rr++ % reactors_.size()];
    if (&target == &r) {
      adopt_connection(r, std::move(sock));
      continue;
    }
    bool need_wake = false;
    {
      util::MutexLock lock(target.mu);
      target.conn_inbox.push_back(std::move(sock));
      need_wake = target.parked;
    }
    if (need_wake) wake(target);
  }
}

void HttpServer::mark_dirty(Reactor& r, Connection& c) {
  if (c.in_dirty_list) return;
  c.in_dirty_list = true;
  r.dirty.push_back(c.id);
}

void HttpServer::finish_local(Reactor& r, Connection& c, std::uint64_t seq,
                              int status, const std::string& body,
                              bool keep_alive,
                              const std::string& extra_headers) {
  metrics_.http_requests_total.fetch_add(1, std::memory_order_relaxed);
  if (status >= 400)
    metrics_.http_errors_total.fetch_add(1, std::memory_order_relaxed);
  metrics_.http_latency.record(c.slot_elapsed_s(seq));
  const bool is_json = !body.empty() && (body[0] == '{' || body[0] == '[');
  c.fill_slot(seq,
              http::make_response(status,
                                  is_json ? "application/json" : "text/plain",
                                  body, keep_alive, extra_headers));
  mark_dirty(r, c);
}

void HttpServer::dispatch_request(Reactor& r, Connection& c,
                                  HttpRequest req) {
  const std::uint64_t seq = c.open_slot();
  Connection::PendingResponse* slot = c.slot(seq);
  slot->keep_alive = req.keep_alive;
  if (req.target == "/v1/query") {
    if (req.method != "POST") {
      finish_local(r, c, seq, 405, http::json_error("POST required"),
                   req.keep_alive);
      return;
    }
    std::string scenario;
    std::vector<double> x;
    if (!http::json_string_field(req.body, "scenario", scenario) ||
        !http::json_number_array(req.body, "x", x)) {
      finish_local(r, c, seq, 400,
                   http::json_error(
                       "body must be {\"scenario\": \"<name>\", \"x\": [..]}"),
                   req.keep_alive);
      return;
    }
    slot->scenario = scenario;
    // Admission errors (shed/full/draining) throw synchronously and the
    // completion never fires; on success the completion fires exactly once
    // on a worker thread and lands in this reactor's inbox.
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    try {
      batcher_.query_async(scenario, std::move(x), req.deadline_s,
                           &HttpServer::on_query_done, &r, c.id, seq);
      return;
    } catch (const DeadlineExceededError& e) {
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      finish_local(r, c, seq, 503, http::json_error(e.what()), req.keep_alive,
                   http::retry_after_header(e.retry_after_s()));
    } catch (const QueueFullError& e) {
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      finish_local(r, c, seq, 503, http::json_error(e.what()), req.keep_alive,
                   http::retry_after_header(1.0));
    } catch (const std::exception& e) {
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      finish_local(r, c, seq, 503, http::json_error(e.what()), req.keep_alive);
    }
    return;
  }
  int status = 200;
  const std::string body = route_sync(req.method, req.target, status);
  finish_local(r, c, seq, status, body, req.keep_alive);
}

void HttpServer::parse_requests(Reactor& r, Connection& c) {
  while (!c.parse_stopped && c.pending.size() < opt_.max_pipeline) {
    HttpRequest req;
    std::size_t body_offset = 0;
    const ParseStatus ps =
        http::parse_head(c.inbuf, req, body_offset, opt_.max_body_bytes);
    if (ps == ParseStatus::kNeedMore) {
      if (c.inbuf.size() > opt_.max_body_bytes) {  // runaway / hostile head
        const std::uint64_t seq = c.open_slot();
        c.parse_stopped = true;
        finish_local(r, c, seq, 431, "headers too large\n",
                     /*keep_alive=*/false);
      }
      break;
    }
    if (ps != ParseStatus::kOk) {
      const int status = ps == ParseStatus::kTooLarge ? 413 : 400;
      const std::uint64_t seq = c.open_slot();
      c.parse_stopped = true;
      finish_local(r, c, seq, status,
                   status == 413 ? "body too large\n" : "bad request\n",
                   /*keep_alive=*/false);
      break;
    }
    if (c.inbuf.size() - body_offset < req.content_length) break;  // need body
    req.body.assign(c.inbuf, body_offset, req.content_length);
    c.inbuf.erase(0, body_offset + req.content_length);
    // Draining: this request still gets its answer, but the connection
    // closes at this boundary so stop() can finish.
    if (draining_.load(std::memory_order_relaxed)) req.keep_alive = false;
    if (!req.keep_alive) c.parse_stopped = true;
    dispatch_request(r, c, std::move(req));
  }
  update_interest(r, c);
}

void HttpServer::update_interest(Reactor& r, Connection& c) {
  // EPOLLIN is paused at the pipeline cap (per-connection backpressure) and
  // once parsing stopped; EPOLLOUT is armed only while there is unflushed
  // output — leaving it armed on a writable socket would busy-loop the
  // level-triggered epoll.
  const bool pause =
      c.parse_stopped || c.pending.size() >= opt_.max_pipeline;
  const bool want_out = c.has_backlog();
  if (pause == c.reading_paused && want_out == c.want_write) return;
  c.reading_paused = pause;
  c.want_write = want_out;
  epoll_event ev{};
  ev.data.u64 = c.id;
  ev.events = (pause ? 0U : static_cast<unsigned>(EPOLLIN)) |
              (want_out ? static_cast<unsigned>(EPOLLOUT) : 0U);
  ::epoll_ctl(r.epfd, EPOLL_CTL_MOD, c.sock.fd(), &ev);
}

void HttpServer::on_readable(Reactor& r, Connection& c) {
  char chunk[16384];
  for (;;) {
    const long n = c.sock.read_nb(chunk, sizeof(chunk));
    if (n == util::TcpSocket::kWouldBlock) break;
    if (n <= 0) {  // peer closed or error
      close_connection(r, c);
      return;
    }
    c.inbuf.append(chunk, static_cast<std::size_t>(n));
    c.last_activity.reset();
    // A short read usually means the socket is drained; level-triggered
    // epoll re-notifies if not, so don't spin another syscall to prove it.
    if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
  }
  parse_requests(r, c);
}

void HttpServer::flush_dirty(Reactor& r) {
  // Index loop: processing may append new dirty ids (a flushed connection
  // freeing pipeline slots can parse more buffered requests, whose local
  // responses re-mark it).
  for (std::size_t i = 0; i < r.dirty.size(); ++i) {
    const auto it = r.conns.find(r.dirty[i]);
    if (it == r.conns.end()) continue;  // closed since marked
    Connection& c = *it->second;
    c.in_dirty_list = false;
    c.collect_ready();
    const Connection::WriteResult res = c.flush();
    if (res == Connection::WriteResult::kError) {
      close_connection(r, c);
      continue;
    }
    if (c.should_close()) {
      close_connection(r, c);
      continue;
    }
    if (!c.parse_stopped && !c.inbuf.empty() &&
        c.pending.size() < opt_.max_pipeline)
      parse_requests(r, c);
    update_interest(r, c);
  }
  r.dirty.clear();
}

void HttpServer::drain_inboxes(Reactor& r) {
  std::vector<Reactor::Done> done;
  std::vector<util::TcpSocket> fresh;
  {
    util::MutexLock lock(r.mu);
    done.swap(r.done_inbox);
    fresh.swap(r.conn_inbox);
  }
  for (auto& sock : fresh) adopt_connection(r, std::move(sock));
  for (Reactor::Done& d : done) {
    const auto it = r.conns.find(d.conn_id);
    if (it == r.conns.end()) continue;  // connection died while in flight
    Connection& c = *it->second;
    Connection::PendingResponse* slot = c.slot(d.seq);
    if (slot == nullptr) continue;  // stale (cannot happen; guard anyway)
    int status = 200;
    std::string body;
    switch (d.error) {
      case QueryError::kNone:
        body = http::render_query_body(slot->scenario, d.resp.version,
                                       d.resp.y, status);
        break;
      case QueryError::kNotFound:
        status = 404;
        body = http::json_error(d.message);
        break;
      case QueryError::kInvalidArgument:
        status = 400;
        body = http::json_error(d.message);
        break;
      case QueryError::kRuntime:
        status = 503;
        body = http::json_error(d.message);
        break;
    }
    finish_local(r, c, d.seq, status, body, slot->keep_alive);
  }
}

void HttpServer::expire_idle(Reactor& r) {
  const Clock::time_point now = Clock::now();
  while (!r.wheel.empty() && r.wheel.front().first <= now) {
    const std::uint64_t id = r.wheel.front().second;
    r.wheel.pop_front();
    const auto it = r.conns.find(id);
    if (it == r.conns.end()) continue;  // stale entry of a closed conn
    Connection& c = *it->second;
    const double idle_s = c.last_activity.elapsed_s();
    if (idle_s < opt_.recv_timeout_s) {
      // Was active since this entry was pushed: re-enqueue lazily at the
      // connection's real deadline.
      r.wheel.emplace_back(now + to_duration(opt_.recv_timeout_s - idle_s),
                           id);
      continue;
    }
    close_connection(r, c);
  }
}

void HttpServer::reactor_loop(Reactor& r) {
  epoll_event evs[kMaxEvents];
  bool drain_latched = false;
  while (!hard_stop_.load(std::memory_order_acquire)) {
    drain_inboxes(r);
    if (!drain_latched && draining_.load(std::memory_order_acquire)) {
      drain_latched = true;
      // The listener stays open (and, level-triggered, readable while a
      // late client waits in its backlog) until destruction; accept_nb
      // refuses such a client, so stop watching it or this loop spins.
      if (r.index == 0)
        ::epoll_ctl(r.epfd, EPOLL_CTL_DEL, listener_.fd(), nullptr);
      // Answer every complete buffered request, then stop parsing; each
      // connection closes once its pending responses flush.
      for (auto& [id, conn] : r.conns) {
        Connection& c = *conn;
        if (!c.parse_stopped) parse_requests(r, c);
        c.parse_stopped = true;
        mark_dirty(r, c);
      }
    }
    flush_dirty(r);
    expire_idle(r);

    int timeout_ms = -1;
    if (!r.wheel.empty()) {
      const Clock::time_point now = Clock::now();
      if (r.wheel.front().first <= now) {
        timeout_ms = 0;
      } else {
        const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            r.wheel.front().first - now)
                            .count() +
                        1;
        timeout_ms = static_cast<int>(std::min<long long>(ms, 60000));
      }
    }
    {
      // Park protocol: declare intent under the inbox lock, then recheck —
      // a completion that lands after this sees parked=true and rings the
      // eventfd, which epoll_wait observes immediately.
      util::MutexLock lock(r.mu);
      if (!r.done_inbox.empty() || !r.conn_inbox.empty()) continue;
      r.parked = true;
    }
    int n;
    for (;;) {
      const bool fake_eintr = SGM_FAILPOINT_HIT("http.epoll_eintr");
      n = fake_eintr ? -1 : ::epoll_wait(r.epfd, evs, kMaxEvents, timeout_ms);
      if (fake_eintr) errno = EINTR;
      if (n >= 0) break;
      if (errno == EINTR) continue;  // signal delivery is not shutdown
      n = 0;  // unexpected epoll failure: treat as a timeout tick
      break;
    }
    {
      util::MutexLock lock(r.mu);
      r.parked = false;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = evs[i].data.u64;
      if (id == kListenerId) {
        accept_ready(r);
        continue;
      }
      if (id == kWakeId) {
        std::uint64_t v = 0;
        [[maybe_unused]] ssize_t rd = ::read(r.wake_fd, &v, sizeof(v));
        continue;
      }
      const auto it = r.conns.find(id);
      if (it == r.conns.end()) continue;  // closed earlier this cycle
      Connection& c = *it->second;
      if (evs[i].events & (EPOLLERR | EPOLLHUP)) {
        close_connection(r, c);
        continue;
      }
      if (evs[i].events & EPOLLOUT) mark_dirty(r, c);
      if (evs[i].events & EPOLLIN) on_readable(r, c);  // may close c
    }
  }
  // Hard stop: drop whatever is left (the graceful drain already ran).
  for (std::size_t i = 0; i < r.conns.size(); ++i) {
    metrics_.open_connections.fetch_sub(1, std::memory_order_relaxed);
    reactor_conns_.fetch_sub(1, std::memory_order_relaxed);
  }
  r.conns.clear();
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

std::string HttpServer::route_sync(const std::string& method,
                                   const std::string& target, int& status) {
  if (target == "/healthz" || target == "/metrics" ||
      target == "/v1/models") {
    if (method != "GET") {  // read-only endpoints: mutating verbs are 405
      status = 405;
      return http::json_error("GET required for " + target);
    }
    if (target == "/healthz") {
      const HealthState st = draining_.load(std::memory_order_relaxed)
                                 ? HealthState::kDraining
                                 : batcher_.health();
      if (st == HealthState::kDraining) status = 503;
      return std::string(to_string(st)) + "\n";
    }
    if (target == "/metrics")
      return metrics_.render(registry_.stats().quarantined);
    std::string out = "[";
    bool first = true;
    for (const ModelInfo& info : registry_.list()) {
      if (!first) out += ", ";
      first = false;
      out += "{\"scenario\": \"" + http::json_escape(info.scenario) +
             "\", \"version\": " + std::to_string(info.version) +
             ", \"resident\": " + (info.resident ? "true" : "false") +
             ", \"pinned\": " + (info.pinned ? "true" : "false") + "}";
    }
    out += "]\n";
    return out;
  }
  if (target == "/v1/query") {
    status = 405;
    return http::json_error("POST required");
  }
  status = 404;
  return http::json_error("no such endpoint: " + target);
}

}  // namespace sgm::serve
