#pragma once
// Thin RAII wrappers over POSIX TCP sockets — the transport under
// serve::HttpServer and the bench/test clients.
//
// Two I/O disciplines share these wrappers:
//  * nonblocking calls (read_nb/write_some, TcpListener::accept_nb) for the
//    epoll reactor in serve::HttpServer — would-block is a normal return
//    (kWouldBlock), never an error, and partial writes report how far they
//    got so the caller can keep a write cursor;
//  * blocking calls (read_some/write_all, set_recv_timeout) for the bench
//    and test clients.
//
// All writes use MSG_NOSIGNAL — a peer that disappears surfaces as an error
// return, never SIGPIPE.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace sgm::util {

/// Movable RAII wrapper of one connected TCP socket.
class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket() { close(); }

  TcpSocket(TcpSocket&& other) noexcept;
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Distinguished return of the nonblocking calls: the operation would
  /// have blocked (EAGAIN/EWOULDBLOCK). Not an error — retry when the fd
  /// polls readable/writable again.
  static constexpr long kWouldBlock = -2;

  /// Blocking read of up to `n` bytes. Returns the byte count, 0 on orderly
  /// peer shutdown, -1 on error. Retries EINTR internally.
  long read_some(char* buf, std::size_t n);

  /// Nonblocking read: byte count, 0 on orderly peer shutdown, kWouldBlock
  /// when no data is buffered, -1 on error. Retries EINTR internally. The
  /// fd must be in nonblocking mode (set_nonblocking / accept_nb).
  long read_nb(char* buf, std::size_t n);

  /// Nonblocking write of at most `n` bytes: returns how many the kernel
  /// took (possibly < n), kWouldBlock when the send buffer is full, -1 on
  /// error. Never raises SIGPIPE; retries EINTR. The `socket.short_send`
  /// failpoint caps each send at one byte (partial-write continuation
  /// tests). The fd must be in nonblocking mode.
  long write_some(const char* buf, std::size_t n);

  /// Toggles O_NONBLOCK on the fd.
  void set_nonblocking(bool on);

  /// Writes all `n` bytes through the single audited send loop (send_all):
  /// partial sends resume where they left off and EINTR retries. Never
  /// raises SIGPIPE. Returns false on any error.
  bool write_all(const char* buf, std::size_t n) {
    return send_all(fd_, buf, n);
  }
  bool write_all(const std::string& s) {
    return write_all(s.data(), s.size());
  }

  /// Disables Nagle batching; latency-sensitive request/response traffic.
  void set_nodelay(bool on);

  /// Read timeout (SO_RCVTIMEO); 0 disables. Bounds a blocking client read
  /// against a server that never answers.
  void set_recv_timeout(double seconds);

  void close();

 private:
  /// The one blocking send loop, behind both write_all overloads (keeping
  /// the partial-write / EINTR handling in a single audited place). The
  /// `socket.short_send` failpoint caps each send at one byte so tests can
  /// drive the resume path deterministically.
  static bool send_all(int fd, const char* buf, std::size_t n);

  int fd_ = -1;
};

/// Listening socket bound to 127.0.0.1. Thread-safe close() that makes every
/// later accept_nb() fail.
class TcpListener {
 public:
  /// Binds and listens on 127.0.0.1:`port`; port 0 picks an ephemeral port
  /// (read it back via port()). Throws std::runtime_error on failure.
  explicit TcpListener(std::uint16_t port, int backlog = 128);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// The listening descriptor — for registration in an epoll set. Combine
  /// with set_nonblocking() + accept_nb().
  int fd() const { return listen_fd_; }

  /// Puts the *listening* fd into nonblocking mode so accept_nb never
  /// parks (a readiness notification can be stale: another acceptor, or a
  /// client that reset before the accept).
  void set_nonblocking(bool on);

  /// Accept via accept4: the returned connection is always in nonblocking
  /// mode; the call itself blocks only if the listening fd is blocking. On
  /// an invalid return, `would_block` distinguishes "no pending connection
  /// right now" (true) from a real error or a closed listener (false).
  /// Retries EINTR/ECONNABORTED internally.
  TcpSocket accept_nb(bool& would_block);

  /// Signals shutdown; idempotent and safe from any thread. The descriptor
  /// stays open until the destructor, so a concurrent accept_nb() never
  /// touches a closed (or reused) fd; the destructor must not run
  /// concurrently with accept_nb().
  void close();

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> closed_{false};
};

/// Blocking connect to 127.0.0.1:`port` (bench/test client side). Throws
/// std::runtime_error on failure.
TcpSocket tcp_connect(std::uint16_t port);

}  // namespace sgm::util
