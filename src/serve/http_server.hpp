#pragma once
// Minimal HTTP/1.1 front end for the surrogate serving engine.
//
// Readiness-driven I/O: a small fixed set of reactor threads own
// nonblocking connections in an epoll set. Each connection is a state
// machine (streaming parse buffer, ordered pending-response queue,
// partial-write cursor; serve/connection.*); /v1/query dispatches into the
// batcher's lock-free ring via query_async and the completion marshals the
// response back to the owning reactor (eventfd wake only when the reactor
// is actually parked in epoll_wait). Pipelined requests on one connection
// batch together in the GEMM and their responses coalesce into single
// writes, but always flush in request order. Thread count is fixed at
// num_reactors no matter how many thousands of keep-alive connections are
// open; idle connections cost one epoll registration and one lazy
// idle-wheel entry, not a parked thread.
//
// The read path is a streaming loop: leftover buffered bytes carry across
// requests, so a pipelining client gets one response per request no matter
// how the bytes chunk onto reads. Content-Length is validated (digits
// only, <= max_body_bytes) before any arithmetic; GET-only endpoints
// return 405 for other verbs; HTTP/1.0 peers default to Connection: close;
// the Connection header is parsed as a token list; non-finite numbers are
// rejected on parse and refused on serialize; everything emitted inside a
// JSON string is escaped.
//
// Degradation contract (the failure model, docs/ARCHITECTURE.md):
//  * a full batcher queue surfaces as 503 + sgm_serve_rejected_total and a
//    Retry-After hint (backpressure, not collapse);
//  * a query whose `x-deadline-ms` request header (or the batcher's default
//    deadline) is smaller than the estimated queue wait is shed up front:
//    503 + Retry-After + sgm_serve_deadline_shed_total (query_async sheds
//    synchronously at submit);
//  * /healthz reports the batcher's health state — "ok" / "degraded" (both
//    200, degraded means load was shed recently or the queue is deep) or
//    "draining" (503, stop() in progress) — so load balancers can steer
//    away before hard failures;
//  * stop() drains gracefully: accepted connections get their buffered
//    requests answered (bounded by drain_deadline_s) before the hard stop.
//
// Routes:
//   POST /v1/query   {"scenario": "<name>", "x": [..]}
//                 -> {"scenario": "...", "version": N, "y": [..]}
//                    optional x-deadline-ms header = per-request budget
//   GET  /v1/models  JSON array of {scenario, version, resident, pinned}
//   GET  /healthz    "ok" | "degraded" (200) or "draining" (503)
//   GET  /metrics    Prometheus text exposition (ServeMetrics::render,
//                    including sgm_registry_quarantined_total and the
//                    sgm_serve_open_connections gauge)
//
// Doubles in responses are printed in their shortest round-trip form
// (std::to_chars), so a served prediction round-trips the text layer
// bit-exactly (same guarantee the telemetry CSVs get from %.17g).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/connection.hpp"
#include "serve/metrics.hpp"
#include "serve/model_registry.hpp"
#include "util/socket.hpp"

namespace sgm::serve {

struct HttpServerOptions {
  std::uint16_t port = 0;        ///< 0 = ephemeral (read back via port())
  /// Idle keep-alive cutoff. Writes never block, so a peer that stops
  /// reading just keeps its EPOLLOUT armed until this cutoff closes it.
  double recv_timeout_s = 10.0;
  /// stop() serves already-accepted connections for at most this long
  /// before hard-stopping.
  double drain_deadline_s = 2.0;
  std::size_t max_body_bytes = 1 << 20;
  /// Event-loop threads. Connections are distributed round-robin at
  /// accept; each is owned by exactly one reactor for its lifetime.
  std::size_t num_reactors = 1;
  /// Per-connection cap on parsed-but-unanswered requests. Reaching it
  /// pauses reading (EPOLLIN disarmed) until responses flush —
  /// per-connection backpressure on top of the batcher's bounded ring.
  std::size_t max_pipeline = 64;
};

class HttpServer {
 public:
  /// Binds immediately (so port() is valid) and spawns the reactor threads.
  /// Throws std::invalid_argument for num_reactors or max_pipeline of 0.
  HttpServer(ModelRegistry& registry, InferenceBatcher& batcher,
             ServeMetrics& metrics, HttpServerOptions opt = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Graceful stop: refuses new connections immediately (/healthz flips to
  /// "draining"), answers the requests already accepted — bounded by
  /// opt_.drain_deadline_s — then hard-stops and joins all threads. Idle
  /// keep-alive connections are dropped at their next request boundary.
  /// Idempotent.
  void stop();

 private:
  struct Reactor;

  /// The non-query endpoints (/healthz, /metrics, /v1/models, 404s, 405s),
  /// answered synchronously on the reactor thread.
  std::string route_sync(const std::string& method, const std::string& target,
                         int& status);

  void reactor_loop(Reactor& r);
  void wake(Reactor& r);
  void adopt_connection(Reactor& r, util::TcpSocket sock);
  void close_connection(Reactor& r, Connection& c);
  void accept_ready(Reactor& r);
  void on_readable(Reactor& r, Connection& c);
  /// Parses every complete buffered request (up to the pipeline cap) and
  /// dispatches each; updates read-interest afterwards.
  void parse_requests(Reactor& r, Connection& c);
  void dispatch_request(Reactor& r, Connection& c, http::HttpRequest req);
  /// Fills `seq` with a locally produced (non-async) response.
  void finish_local(Reactor& r, Connection& c, std::uint64_t seq, int status,
                    const std::string& body, bool keep_alive,
                    const std::string& extra_headers = std::string());
  void mark_dirty(Reactor& r, Connection& c);
  /// Recomputes the epoll interest mask (EPOLLIN paused at the pipeline
  /// cap / after parse stop; EPOLLOUT only while output is backlogged).
  void update_interest(Reactor& r, Connection& c);
  /// collect_ready + flush + epoll re-arming + close-when-done for every
  /// connection marked dirty this cycle.
  void flush_dirty(Reactor& r);
  void drain_inboxes(Reactor& r);
  void expire_idle(Reactor& r);
  /// InferenceBatcher::Completion trampoline (ctx = Reactor*).
  static void on_query_done(void* ctx, std::uint64_t conn_id,
                            std::uint64_t seq, InferenceBatcher::Response&& resp,
                            QueryError error, const std::string& message);

  ModelRegistry& registry_;
  InferenceBatcher& batcher_;
  ServeMetrics& metrics_;
  HttpServerOptions opt_;

  util::TcpListener listener_;
  /// stop() entered its drain phase: no new connections; existing ones are
  /// answered and closed at their next request boundary; /healthz reports
  /// "draining".
  std::atomic<bool> draining_{false};

  std::vector<std::unique_ptr<Reactor>> reactors_;
  /// Reactor loops exit when set; the stop() that sets it joins them.
  std::atomic<bool> hard_stop_{false};
  /// Open reactor-owned connections across all reactors (drain progress).
  std::atomic<std::uint64_t> reactor_conns_{0};
  /// query_async dispatches whose completion has not finished yet. The
  /// completion touches its Reactor's inbox, so stop() must not let the
  /// reactors die before this reaches zero.
  std::atomic<std::uint64_t> outstanding_{0};
};

}  // namespace sgm::serve
