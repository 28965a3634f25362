// Unit tests for the POSIX TCP wrappers (src/util/socket.hpp), focused on
// the error paths the HTTP front end and its clients depend on:
// orderly-shutdown reads, writes to a vanished peer, receive timeouts, the
// nonblocking calls, the listener's close() contract and connect failures.

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "util/failpoint.hpp"
#include "util/socket.hpp"

namespace {

using sgm::util::TcpListener;
using sgm::util::TcpSocket;
using sgm::util::tcp_connect;

// Accepted server end + connected client end of one loopback connection.
struct Loopback {
  TcpSocket server, client;
};

// The listener is blocking here, and connect() returning means the
// connection is already queued, so accept_nb returns it without a retry.
// accept4 hands it over nonblocking; the blocking tests want it blocking.
Loopback make_loopback(TcpListener& listener) {
  Loopback lb;
  lb.client = tcp_connect(listener.port());
  bool would_block = false;
  lb.server = listener.accept_nb(would_block);
  lb.server.set_nonblocking(false);
  return lb;
}

TEST(Socket, EphemeralPortIsAssigned) {
  TcpListener listener(0);
  EXPECT_NE(listener.port(), 0);
}

TEST(Socket, RoundTrip) {
  TcpListener listener(0);
  Loopback lb = make_loopback(listener);
  ASSERT_TRUE(lb.server.valid());
  ASSERT_TRUE(lb.client.valid());

  const std::string msg = "ping";
  ASSERT_TRUE(lb.client.write_all(msg));
  char buf[16];
  long got = lb.server.read_some(buf, sizeof(buf));
  ASSERT_GT(got, 0);
  EXPECT_EQ(std::string(buf, static_cast<std::size_t>(got)), msg);
}

TEST(Socket, ReadReturnsZeroOnOrderlyPeerShutdown) {
  TcpListener listener(0);
  Loopback lb = make_loopback(listener);
  lb.client.close();
  char buf[8];
  EXPECT_EQ(lb.server.read_some(buf, sizeof(buf)), 0);
}

TEST(Socket, WriteToClosedPeerFailsWithoutSigpipe) {
  TcpListener listener(0);
  Loopback lb = make_loopback(listener);
  lb.server.close();
  // The first writes may land in kernel buffers; keep pushing until the
  // RST surfaces. MSG_NOSIGNAL means we observe `false`, not SIGPIPE
  // killing the process.
  const std::string chunk(64 * 1024, 'x');
  bool failed = false;
  for (int i = 0; i < 64 && !failed; ++i)
    failed = !lb.client.write_all(chunk);
  EXPECT_TRUE(failed);
}

TEST(Socket, InvalidSocketOperationsFail) {
  TcpSocket s;
  EXPECT_FALSE(s.valid());
  char buf[4];
  EXPECT_EQ(s.read_some(buf, sizeof(buf)), -1);
  EXPECT_FALSE(s.write_all("x", 1));
}

TEST(Socket, MoveTransfersOwnership) {
  TcpListener listener(0);
  Loopback lb = make_loopback(listener);
  const int fd = lb.client.fd();
  TcpSocket moved = std::move(lb.client);
  EXPECT_EQ(moved.fd(), fd);
  EXPECT_FALSE(lb.client.valid());
  EXPECT_TRUE(moved.write_all("still open", 10));
}

TEST(Socket, RecvTimeoutUnblocksIdleRead) {
  TcpListener listener(0);
  Loopback lb = make_loopback(listener);
  lb.server.set_recv_timeout(0.05);
  char buf[8];
  // No data ever arrives: the read must return an error instead of
  // parking the thread forever (the bench clients' guard against a server
  // that never answers).
  EXPECT_EQ(lb.server.read_some(buf, sizeof(buf)), -1);
}

// Regression for the send loop: with the `socket.short_send` failpoint
// forcing 1-byte kernel writes, write_all must resume from every partial
// send and still deliver the payload bitwise (every blocking client write
// rides on this loop).
TEST(Socket, WriteAllResumesAcrossShortSends) {
  sgm::util::FailpointRegistry::instance().arm("socket.short_send", "always");
  TcpListener listener(0);
  Loopback lb = make_loopback(listener);

  std::string payload(8192, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>('a' + i % 23);

  std::string received;
  std::thread reader([&] {
    char chunk[512];
    long n;
    while (received.size() < payload.size() &&
           (n = lb.server.read_some(chunk, sizeof(chunk))) > 0)
      received.append(chunk, static_cast<std::size_t>(n));
  });
  const bool ok = lb.client.write_all(payload);
  reader.join();
  sgm::util::FailpointRegistry::instance().disarm_all();

  EXPECT_TRUE(ok);
  EXPECT_EQ(received, payload);
}

// --- nonblocking API (the epoll reactor's transport, PR 10) ----------------

TEST(Socket, ReadNbReturnsWouldBlockOnEmptySocket) {
  TcpListener listener(0);
  Loopback lb = make_loopback(listener);
  lb.server.set_nonblocking(true);
  char buf[8];
  // No bytes in flight: a nonblocking read must report would-block, not
  // park and not error.
  EXPECT_EQ(lb.server.read_nb(buf, sizeof(buf)), TcpSocket::kWouldBlock);

  ASSERT_TRUE(lb.client.write_all("hi", 2));
  // Data may take a scheduler beat to land in the receive buffer.
  long got = TcpSocket::kWouldBlock;
  for (int i = 0; i < 1000 && got == TcpSocket::kWouldBlock; ++i) {
    got = lb.server.read_nb(buf, sizeof(buf));
    if (got == TcpSocket::kWouldBlock)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(got, 2);
  EXPECT_EQ(std::string(buf, 2), "hi");

  lb.client.close();
  got = TcpSocket::kWouldBlock;
  for (int i = 0; i < 1000 && got == TcpSocket::kWouldBlock; ++i)
    got = lb.server.read_nb(buf, sizeof(buf));
  EXPECT_EQ(got, 0) << "orderly shutdown must still read as 0";
}

TEST(Socket, WriteSomeReportsWouldBlockWhenBufferFull) {
  TcpListener listener(0);
  Loopback lb = make_loopback(listener);
  lb.client.set_nonblocking(true);

  // The peer never reads: keep writing until the kernel buffers fill. A
  // nonblocking write must then report would-block instead of parking.
  const std::string chunk(64 * 1024, 'x');
  long rc = 0;
  std::size_t total = 0;
  for (int i = 0; i < 4096; ++i) {
    rc = lb.client.write_some(chunk.data(), chunk.size());
    if (rc == TcpSocket::kWouldBlock) break;
    ASSERT_GT(rc, 0);
    total += static_cast<std::size_t>(rc);
  }
  EXPECT_EQ(rc, TcpSocket::kWouldBlock);

  // Drain on the blocking side: every byte the writer thinks it sent must
  // arrive (partial-send accounting is exact).
  std::size_t received = 0;
  char buf[65536];
  while (received < total) {
    const long n = lb.server.read_some(buf, sizeof(buf));
    ASSERT_GT(n, 0);
    received += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(received, total);
}

TEST(Socket, WriteSomeHonorsShortSendFailpoint) {
  sgm::util::FailpointRegistry::instance().arm("socket.short_send", "always");
  TcpListener listener(0);
  Loopback lb = make_loopback(listener);
  lb.client.set_nonblocking(true);
  // The failpoint caps each kernel send at one byte — the partial-write
  // continuation path the reactor's flush cursor depends on.
  EXPECT_EQ(lb.client.write_some("abc", 3), 1);
  sgm::util::FailpointRegistry::instance().disarm_all();
}

TEST(Socket, AcceptNbDistinguishesWouldBlockFromClosed) {
  TcpListener listener(0);
  listener.set_nonblocking(true);

  bool would_block = false;
  TcpSocket conn = listener.accept_nb(would_block);
  EXPECT_FALSE(conn.valid());
  EXPECT_TRUE(would_block) << "no pending connection is not an error";

  // A pending connection accepts without parking, already nonblocking:
  // a read on the fresh connection reports would-block, not a stall.
  TcpSocket client = tcp_connect(listener.port());
  for (int i = 0; i < 1000 && !conn.valid(); ++i) {
    conn = listener.accept_nb(would_block);
    if (!conn.valid())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(conn.valid());
  char buf[4];
  EXPECT_EQ(conn.read_nb(buf, sizeof(buf)), TcpSocket::kWouldBlock);

  listener.close();
  conn = listener.accept_nb(would_block);
  EXPECT_FALSE(conn.valid());
  EXPECT_FALSE(would_block) << "a closed listener is terminal, not a retry";
}

TEST(Socket, ConnectToDeadPortThrows) {
  // Bind an ephemeral port, then close it: connecting to it afterwards
  // must be refused (nothing is listening there anymore).
  std::uint16_t dead_port;
  {
    TcpListener listener(0);
    dead_port = listener.port();
    listener.close();
  }
  EXPECT_THROW(tcp_connect(dead_port), std::runtime_error);
}

}  // namespace
