#include "util/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/failpoint.hpp"

namespace sgm::util {

namespace {
std::runtime_error sys_error(const char* what) {
  return std::runtime_error(std::string(what) + ": " +
                            std::strerror(errno));
}

timeval to_timeval(double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  return tv;
}

void set_fd_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags) ::fcntl(fd, F_SETFL, want);
}
}  // namespace

// ---------------------------------------------------------------------------
// TcpSocket
// ---------------------------------------------------------------------------

TcpSocket::TcpSocket(TcpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

long TcpSocket::read_some(char* buf, std::size_t n) {
  while (true) {
    const ssize_t r = ::recv(fd_, buf, n, 0);
    if (r >= 0) return static_cast<long>(r);
    if (errno == EINTR) continue;
    return -1;
  }
}

long TcpSocket::read_nb(char* buf, std::size_t n) {
  while (true) {
    const ssize_t r = ::recv(fd_, buf, n, 0);
    if (r >= 0) return static_cast<long>(r);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kWouldBlock;
    return -1;
  }
}

long TcpSocket::write_some(const char* buf, std::size_t n) {
  // socket.short_send caps the chunk at one byte, as in send_all, so the
  // reactor's partial-write continuation is drivable deterministically.
  const std::size_t chunk = SGM_FAILPOINT_HIT("socket.short_send")
                                ? std::min<std::size_t>(1, n)
                                : n;
  while (true) {
    const ssize_t w = ::send(fd_, buf, chunk, MSG_NOSIGNAL);
    if (w >= 0) return static_cast<long>(w);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kWouldBlock;
    return -1;
  }
}

void TcpSocket::set_nonblocking(bool on) { set_fd_nonblocking(fd_, on); }

bool TcpSocket::send_all(int fd, const char* buf, std::size_t n) {
  // socket.short_send caps every send at one byte, forcing the partial-
  // write resume path that a loopback kernel almost never exercises.
  const bool short_sends = SGM_FAILPOINT_HIT("socket.short_send");
  std::size_t sent = 0;
  while (sent < n) {
    const std::size_t chunk = short_sends ? 1 : n - sent;
    const ssize_t w = ::send(fd, buf + sent, chunk, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    // Everything else — peer gone (EPIPE/ECONNRESET), bad fd — is a failed
    // write; the caller owns the fallout.
    return false;
  }
  return true;
}

void TcpSocket::set_nodelay(bool on) {
  const int flag = on ? 1 : 0;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag));
}

void TcpSocket::set_recv_timeout(double seconds) {
  const timeval tv = to_timeval(seconds);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void TcpSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw sys_error("TcpListener: socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    throw sys_error("TcpListener: bind");
  }
  if (::listen(listen_fd_, backlog) < 0) {
    ::close(listen_fd_);
    throw sys_error("TcpListener: listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    ::close(listen_fd_);
    throw sys_error("TcpListener: getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpListener::set_nonblocking(bool on) {
  set_fd_nonblocking(listen_fd_, on);
}

TcpSocket TcpListener::accept_nb(bool& would_block) {
  would_block = false;
  while (true) {
    if (closed_.load(std::memory_order_acquire)) return TcpSocket();
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd >= 0) return TcpSocket(fd);
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      would_block = true;
      return TcpSocket();
    }
    return TcpSocket();
  }
}

void TcpListener::close() { closed_.store(true, std::memory_order_release); }

TcpSocket tcp_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw sys_error("tcp_connect: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
         0) {
    if (errno == EINTR) continue;
    ::close(fd);
    throw sys_error("tcp_connect: connect");
  }
  return TcpSocket(fd);
}

}  // namespace sgm::util
