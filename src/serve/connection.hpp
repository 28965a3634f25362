#pragma once
// HTTP request-path machinery, split out of http_server.cpp so the epoll
// reactor and the unit tests exercise the exact same parser and
// serializer:
//
//  * sgm::serve::http — the head parser (streaming: kNeedMore until the
//    full head is buffered), the two-shape JSON body helpers and the
//    response serializers. Pure functions over strings; no I/O.
//  * sgm::serve::Connection — the reactor's per-connection state machine:
//    streaming input buffer, an *ordered* pending-response queue (pipelined
//    requests dispatch concurrently into the batcher but their responses
//    flush strictly in request order), and a partial-write cursor over the
//    coalesced output buffer.
//
// Parser hardening pinned by tests/test_serve.cpp regressions:
//  * find_key walks JSON structure and skips string *contents*, so a value
//    that happens to contain a key's spelling ({"scenario": "x", "x": [1]})
//    can never shadow the real key;
//  * json_number_array rejects non-finite numbers (nan/inf/1e999) — and the
//    response side refuses to serialize non-finite predictions (defense in
//    depth: a bare `nan` token is not JSON);
//  * the Connection header is parsed as a comma-separated token list
//    ("keep-alive, Upgrade" keeps the connection alive; close wins).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/socket.hpp"
#include "util/timer.hpp"

namespace sgm::serve::http {

struct HttpRequest {
  std::string method, target, body;
  bool keep_alive = true;
  std::size_t content_length = 0;
  double deadline_s = -1.0;  ///< from x-deadline-ms; < 0 = none given
};

enum class ParseStatus {
  kNeedMore,    ///< head incomplete; read more bytes
  kOk,          ///< head parsed; body starts at body_offset
  kBadRequest,  ///< 400: malformed request line / version / Content-Length
  kTooLarge,    ///< 413: declared Content-Length exceeds max_body_bytes
};

/// Parses the head (request line + headers) at the start of `buf`. The
/// Content-Length value is validated here — digits only, no wrap, and at
/// most `max_body_bytes` — so a hostile header is rejected immediately
/// instead of wrapping `body_offset + content_length` into a truncated body
/// or stalling the connection until the idle timeout. The Connection header
/// is a token list: any `close` token forces close, else any `keep-alive`
/// token keeps the connection alive.
ParseStatus parse_head(const std::string& buf, HttpRequest& req,
                       std::size_t& body_offset, std::size_t max_body_bytes);

/// Returns the offset just past `"key":` (and any following spaces), or
/// npos. Walks the JSON structure: only a string immediately followed by a
/// colon counts as a key, and string contents are skipped entirely.
std::size_t find_key(const std::string& body, const std::string& key);

bool json_string_field(const std::string& body, const std::string& key,
                       std::string& out);

/// Parses `"key": [n, n, ...]`. Rejects non-finite numbers (nan, inf,
/// overflowing literals like 1e999) — they are not JSON and must never
/// reach the model as silent poison.
bool json_number_array(const std::string& body, const std::string& key,
                       std::vector<double>& out);

/// Shortest round-trip representation (std::to_chars: strtod of the text
/// is bit-exact, like %.17g but much cheaper) — but a non-finite value
/// serializes as `null`: bare `nan`/`inf` tokens are not JSON. Callers
/// that must not emit non-finite at all (the /v1/query success body) check
/// first and fail the request instead.
void append_json_f64(std::string& out, double v);

/// Minimal JSON string escaper: quotes, backslashes and control characters.
std::string json_escape(const std::string& s);

std::string json_error(const std::string& message);

const char* status_text(int status);

/// `extra_headers` holds zero or more fully formed "Name: value\r\n" lines
/// (Retry-After on shed responses).
std::string make_response(int status, const std::string& content_type,
                          const std::string& body, bool keep_alive,
                          const std::string& extra_headers = std::string());

/// RFC-style Retry-After value: whole seconds, at least 1.
std::string retry_after_header(double retry_after_s);

bool iequals(const std::string& a, const char* b);

/// Renders the /v1/query success body — unless any prediction is
/// non-finite, in which case it returns a 500 error body instead (status is
/// rewritten): the server refuses to emit invalid JSON no matter what the
/// model produced.
std::string render_query_body(const std::string& scenario,
                              std::uint64_t version,
                              const std::vector<double>& y, int& status);

}  // namespace sgm::serve::http

namespace sgm::serve {

/// Per-connection state owned by exactly one reactor thread (never shared;
/// batcher completions are marshalled back to the owning reactor before
/// they touch it — see http_server.cpp). Plain struct + small mechanics:
/// the reactor drives parsing/dispatch, the Connection keeps the ordering
/// and write bookkeeping honest.
struct Connection {
  Connection(util::TcpSocket s, std::uint64_t conn_id)
      : sock(std::move(s)), id(conn_id) {}

  util::TcpSocket sock;
  std::uint64_t id = 0;

  /// Streaming input: leftover bytes carry across requests so pipelined
  /// requests are all served regardless of how they chunk onto reads.
  std::string inbuf;

  /// Coalesced output + partial-write cursor: one flush() drains as many
  /// complete responses as the kernel will take; kWouldBlock leaves the
  /// cursor mid-response and EPOLLOUT resumes it.
  std::string outbuf;
  std::size_t out_off = 0;

  /// One entry per parsed-and-dispatched request, in request order. An
  /// async completion fills its slot out of order; only the ready in-order
  /// prefix ever moves to outbuf (HTTP/1.1 responses must not interleave).
  struct PendingResponse {
    bool ready = false;
    std::string bytes;
    util::WallTimer timer;  ///< request parse -> response ready (http_latency)
    /// Context an async completion needs to render its response.
    bool keep_alive = true;
    std::string scenario;
  };
  std::deque<PendingResponse> pending;
  std::uint64_t base_seq = 0;  ///< sequence number of pending.front()
  std::uint64_t next_seq = 0;  ///< sequence the next parsed request gets

  /// No further requests will be parsed from inbuf: the peer asked for (or
  /// a parse error forced) Connection: close, or the server is draining.
  /// The connection closes once every pending response has flushed.
  bool parse_stopped = false;
  bool want_write = false;      ///< EPOLLOUT currently armed
  bool reading_paused = false;  ///< EPOLLIN disarmed (pipeline cap reached)
  bool in_dirty_list = false;   ///< queued for this cycle's deferred flush
  util::WallTimer last_activity;  ///< feeds the idle wheel's lazy recheck

  /// Allocates the next in-order response slot; returns its sequence.
  std::uint64_t open_slot() {
    pending.emplace_back();
    return next_seq++;
  }

  /// Slot `seq`, or nullptr if it is stale / out of range.
  PendingResponse* slot(std::uint64_t seq) {
    if (seq < base_seq || seq - base_seq >= pending.size()) return nullptr;
    return &pending[seq - base_seq];
  }

  /// Fills slot `seq` (request-order sequence from open_slot). Safe for
  /// out-of-order completions; returns false if the seq is stale (already
  /// flushed — cannot happen under the reactor's single-owner discipline,
  /// kept as a guard).
  bool fill_slot(std::uint64_t seq, std::string bytes) {
    if (seq < base_seq || seq - base_seq >= pending.size()) return false;
    PendingResponse& slot = pending[seq - base_seq];
    slot.bytes = std::move(bytes);
    slot.ready = true;
    return true;
  }

  /// Elapsed seconds since slot `seq` was opened (for http_latency).
  double slot_elapsed_s(std::uint64_t seq) const {
    if (seq < base_seq || seq - base_seq >= pending.size()) return 0.0;
    return pending[seq - base_seq].timer.elapsed_s();
  }

  /// Moves the ready in-order prefix of `pending` into outbuf. Returns
  /// true if outbuf grew (the connection needs a flush).
  bool collect_ready() {
    bool grew = false;
    while (!pending.empty() && pending.front().ready) {
      outbuf += pending.front().bytes;
      pending.pop_front();
      ++base_seq;
      grew = true;
    }
    return grew;
  }

  enum class WriteResult : std::uint8_t {
    kFlushed,     ///< outbuf fully written (and compacted)
    kWouldBlock,  ///< kernel buffer full; arm EPOLLOUT and resume later
    kError,       ///< peer gone / write error: close the connection
  };

  /// Drains outbuf through nonblocking writes from the cursor.
  WriteResult flush() {
    while (out_off < outbuf.size()) {
      const long w =
          sock.write_some(outbuf.data() + out_off, outbuf.size() - out_off);
      if (w == util::TcpSocket::kWouldBlock) {
        // Compact lazily so a long EPOLLOUT stall doesn't pin the flushed
        // prefix forever.
        if (out_off > (1u << 16) && out_off > outbuf.size() / 2) {
          outbuf.erase(0, out_off);
          out_off = 0;
        }
        return WriteResult::kWouldBlock;
      }
      if (w < 0) return WriteResult::kError;
      out_off += static_cast<std::size_t>(w);
    }
    outbuf.clear();
    out_off = 0;
    return WriteResult::kFlushed;
  }

  bool has_backlog() const { return out_off < outbuf.size(); }

  /// Nothing left to do: parsing stopped, every response flushed.
  bool should_close() const {
    return parse_stopped && pending.empty() && !has_backlog();
  }
};

}  // namespace sgm::serve
