// Serving-engine contract (serve/): batched inference equivalence, registry
// LRU/pin/hot-swap semantics, version attribution under concurrent
// publishes, and the HTTP front end.
//
// The two load-bearing guarantees, pinned bitwise:
//  * BATCHING IS INVISIBLE — a row served through forward_batched (any
//    batch composition, 1 or 4 threads) is byte-identical to a lone
//    net.forward() on that row;
//  * EVERY RESPONSE IS ATTRIBUTABLE — under an 8-client soak with a
//    publisher hot-swapping versions mid-flight, each response's y matches
//    the prediction of exactly the version it reports. This suite is run
//    under ThreadSanitizer in CI (serve-smoke job).

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/mlp.hpp"
#include "serve/batcher.hpp"
#include "serve/http_server.hpp"
#include "serve/metrics.hpp"
#include "serve/model_registry.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace {

namespace fs = std::filesystem;
using sgm::nn::Mlp;
using sgm::nn::MlpConfig;
using sgm::serve::BatcherOptions;
using sgm::serve::InferenceBatcher;
using sgm::serve::ModelRegistry;
using sgm::serve::QueueFullError;
using sgm::serve::ServeMetrics;
using sgm::tensor::Matrix;

MlpConfig small_config() {
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 2;
  cfg.width = 16;
  cfg.depth = 3;
  return cfg;
}

Matrix probe_batch(std::size_t n, std::size_t dim, std::uint64_t seed) {
  sgm::util::Rng rng(seed);
  Matrix x(n, dim);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform();
  return x;
}

Matrix single_row(const Matrix& x, std::size_t r) {
  Matrix out(1, x.cols());
  std::memcpy(out.row(0), x.row(r), x.cols() * sizeof(double));
  return out;
}

std::vector<double> row_vec(const Matrix& x, std::size_t r) {
  return std::vector<double>(x.row(r), x.row(r) + x.cols());
}

/// Fresh registry root per test; removed on teardown.
class ServeTest : public testing::Test {
 protected:
  void SetUp() override {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    root_ = (fs::temp_directory_path() /
             ("sgm_serve_" + std::to_string(::getpid()) + "_" +
              info->test_suite_name() + "_" + info->name()))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
};

// ------------------------------------------------- batched forward bitwise --

class BatchedForward : public ServeTest,
                       public testing::WithParamInterface<std::size_t> {};

TEST_P(BatchedForward, BitwiseEqualsPerRowForward) {
  const std::size_t num_threads = GetParam();
  sgm::util::Rng rng(11);
  Mlp net(small_config(), rng);

  // Odd batch sizes on purpose: chunk boundaries must not show through.
  for (const std::size_t n : {1ul, 3ul, 33ul, 257ul}) {
    const Matrix x = probe_batch(n, net.config().input_dim, 1000 + n);
    Matrix y;
    Mlp::ForwardWorkspace ws;
    net.forward_batched(x, y, ws, num_threads);
    ASSERT_EQ(y.rows(), n);
    ASSERT_EQ(y.cols(), net.config().output_dim);
    for (std::size_t r = 0; r < n; ++r) {
      const Matrix yr = net.forward(single_row(x, r));
      ASSERT_EQ(std::memcmp(y.row(r), yr.row(0),
                            y.cols() * sizeof(double)),
                0)
          << "batch " << n << " row " << r << " at " << num_threads
          << " threads differs from a lone forward";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchedForward, testing::Values(1, 4),
                         [](const testing::TestParamInfo<std::size_t>& info) {
                           return std::to_string(info.param) + "thread";
                         });

// --------------------------------------------------------- registry basics --

TEST_F(ServeTest, RegistryPublishAcquireRoundTrip) {
  ModelRegistry registry(root_);
  sgm::util::Rng rng(21);
  Mlp net(small_config(), rng);
  EXPECT_THROW(registry.acquire("poisson2d"), std::out_of_range);

  EXPECT_EQ(registry.publish("poisson2d", net), 1u);
  const auto served = registry.acquire("poisson2d");
  EXPECT_EQ(served->info.meta.scenario, "poisson2d");
  EXPECT_EQ(served->info.meta.model_version, 1u);

  // Served predictions come from the published weights, bitwise.
  const Matrix x = probe_batch(4, net.config().input_dim, 5);
  const Matrix ya = net.forward(x);
  const Matrix yb = served->model->forward(x);
  EXPECT_EQ(std::memcmp(ya.data(), yb.data(), ya.size() * sizeof(double)), 0);

  EXPECT_THROW(registry.publish("../escape", net), std::invalid_argument);
  EXPECT_THROW(registry.publish("", net), std::invalid_argument);
}

TEST_F(ServeTest, RegistryVersionsAreMonotonicAndOldOnesStayOnDisk) {
  ModelRegistry registry(root_);
  sgm::util::Rng rng(22);
  Mlp v1(small_config(), rng), v2(small_config(), rng);
  EXPECT_EQ(registry.publish("s", v1), 1u);
  EXPECT_EQ(registry.publish("s", v2), 2u);
  EXPECT_TRUE(fs::exists(fs::path(root_) / "s" / "v1.ckpt"));
  EXPECT_TRUE(fs::exists(fs::path(root_) / "s" / "v2.ckpt"));
  EXPECT_EQ(registry.acquire("s")->info.meta.model_version, 2u);

  // A fresh registry over the same root resumes the version sequence.
  ModelRegistry reopened(root_);
  sgm::util::Rng rng2(23);
  Mlp v3(small_config(), rng2);
  EXPECT_EQ(reopened.publish("s", v3), 3u);
}

TEST_F(ServeTest, RegistryAuditHoldsThroughLifecycleAndCatchesTampering) {
  sgm::serve::RegistryOptions opt;
  opt.cache_capacity = 2;
  ModelRegistry registry(root_, opt);
  sgm::util::Rng rng(29);
  Mlp net(small_config(), rng);

  // The invariant sweep must hold at every lifecycle step: publish, cached
  // and loading acquires, pin-induced overflow, unpin, eviction.
  registry.audit();
  registry.publish("a", net);
  registry.audit();
  (void)registry.acquire("a");
  registry.publish("a", net);  // hot-swap of a resident entry
  registry.audit();
  registry.publish("b", net);
  registry.publish("c", net);
  registry.pin("a");
  registry.pin("b");
  registry.pin("c");  // all pinned: 3 resident > capacity 2 is legal
  registry.audit();
  registry.unpin("b");  // eviction brings the cache back under capacity
  registry.audit();

  // Deleting a resident version's backing checkpoint out from under the
  // registry is exactly what the audit exists to catch.
  const std::uint64_t v = registry.acquire("a")->info.meta.model_version;
  fs::remove(fs::path(root_) / "a" / ("v" + std::to_string(v) + ".ckpt"));
  EXPECT_THROW(registry.audit(), sgm::util::CheckError);
}

TEST_F(ServeTest, RegistryLruEvictsOldestUnpinnedAndPinProtects) {
  sgm::serve::RegistryOptions opt;
  opt.cache_capacity = 2;
  ModelRegistry registry(root_, opt);
  sgm::util::Rng rng(24);
  Mlp net(small_config(), rng);
  registry.publish("a", net);
  registry.publish("b", net);
  registry.publish("c", net);

  registry.pin("a");
  (void)registry.acquire("b");
  (void)registry.acquire("c");  // capacity 2: must evict b, never pinned a

  const auto list = registry.list();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_TRUE(list[0].resident && list[0].pinned) << "a";
  EXPECT_FALSE(list[1].resident) << "b was the LRU victim";
  EXPECT_TRUE(list[2].resident) << "c";

  const auto stats = registry.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.publishes, 3u);

  // Unpinning returns `a` to the pool: the next load can now evict it.
  registry.unpin("a");
  (void)registry.acquire("b");
  EXPECT_FALSE(registry.list()[0].resident) << "a evictable after unpin";

  // Cache hits don't reload from disk.
  const auto before = registry.stats().loads;
  (void)registry.acquire("b");
  EXPECT_EQ(registry.stats().loads, before);
}

TEST_F(ServeTest, HotSwapLeavesInFlightAcquisitionsOnTheirVersion) {
  ModelRegistry registry(root_);
  sgm::util::Rng rng(25);
  Mlp v1(small_config(), rng), v2(small_config(), rng);
  registry.publish("s", v1);

  const auto held = registry.acquire("s");  // an in-flight batch's view
  registry.publish("s", v2);

  EXPECT_EQ(held->info.meta.model_version, 1u)
      << "hot-swap must not mutate an acquired model";
  const auto fresh = registry.acquire("s");
  EXPECT_EQ(fresh->info.meta.model_version, 2u);
  EXPECT_NE(held->info.checksum, fresh->info.checksum);

  const Matrix x = probe_batch(3, v1.config().input_dim, 9);
  const Matrix expect1 = v1.forward(x);
  const Matrix got1 = held->model->forward(x);
  EXPECT_EQ(
      std::memcmp(expect1.data(), got1.data(), got1.size() * sizeof(double)),
      0)
      << "held version still serves v1 weights";
}

// -------------------------------------------------------- batcher contract --

class BatcherEquivalence : public ServeTest,
                           public testing::WithParamInterface<std::size_t> {};

TEST_P(BatcherEquivalence, ResponsesBitwiseMatchLoneForwards) {
  const std::size_t num_threads = GetParam();
  ModelRegistry registry(root_);
  sgm::util::Rng rng(31);
  Mlp net(small_config(), rng);
  registry.publish("s", net);

  BatcherOptions opt;
  opt.max_batch = 16;
  opt.max_delay_s = 1e-3;  // force real coalescing under the client storm
  opt.num_threads = num_threads;
  InferenceBatcher batcher(registry, opt);

  const std::size_t kClients = 8, kQueriesEach = 50;
  const Matrix probes =
      probe_batch(kClients * kQueriesEach, net.config().input_dim, 777);
  const Matrix expected = net.forward(probes);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = 0; q < kQueriesEach; ++q) {
        const std::size_t r = c * kQueriesEach + q;
        const auto resp = batcher.query("s", row_vec(probes, r));
        if (resp.version != 1 ||
            resp.y.size() != net.config().output_dim ||
            std::memcmp(resp.y.data(), expected.row(r),
                        resp.y.size() * sizeof(double)) != 0)
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "batched responses must be bitwise identical to lone forwards";
}

INSTANTIATE_TEST_SUITE_P(Threads, BatcherEquivalence, testing::Values(1, 4),
                         [](const testing::TestParamInfo<std::size_t>& info) {
                           return std::to_string(info.param) + "thread";
                         });

TEST_F(ServeTest, BatcherActuallyCoalescesAndCountsFlushes) {
  ModelRegistry registry(root_);
  sgm::util::Rng rng(32);
  Mlp net(small_config(), rng);
  registry.publish("s", net);

  ServeMetrics metrics;
  BatcherOptions opt;
  opt.max_batch = 8;
  // A wide deadline window makes coalescing robust to scheduler noise: the
  // worker holds a partial batch for 50 ms, and with 16 clients re-querying
  // continuously, batches fill (and flush early) long before that. Full
  // batches do not wait out the window, so the test stays fast.
  opt.max_delay_s = 50e-3;
  InferenceBatcher batcher(registry, opt, &metrics);

  const Matrix probes = probe_batch(64, net.config().input_dim, 88);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 16; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = 0; q < 4; ++q)
        (void)batcher.query("s", row_vec(probes, c * 4 + q));
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(metrics.queries_total.load(), 64u);
  EXPECT_LT(metrics.batches_total.load(), 64u)
      << "16 concurrent clients should coalesce into fewer batches";
  EXPECT_EQ(metrics.full_flushes_total.load() +
                metrics.deadline_flushes_total.load(),
            metrics.batches_total.load());
  EXPECT_EQ(metrics.query_latency.count(), 64u);
}

TEST_F(ServeTest, BatcherErrorPaths) {
  ModelRegistry registry(root_);
  sgm::util::Rng rng(33);
  Mlp net(small_config(), rng);
  registry.publish("s", net);

  InferenceBatcher batcher(registry, {});
  EXPECT_THROW(batcher.query("never_published", {0.0, 0.0}),
               std::out_of_range);
  EXPECT_THROW(batcher.query("s", {0.0, 0.0, 0.0}), std::invalid_argument);
  EXPECT_NO_THROW(batcher.query("s", {0.0, 0.0}));
  batcher.stop();
  EXPECT_THROW(batcher.query("s", {0.0, 0.0}), std::runtime_error);
  batcher.stop();  // idempotent
}

// Far more queries than the slot pool: every slot is reused hundreds of
// times, and a slot handed back to the freelist before its response was
// delivered (or delivered to the wrong waiter) would surface as a wrong or
// torn response (bitwise check) or a hang.
TEST_F(ServeTest, RingSlotsRecycleCorrectlyAcrossGenerations) {
  ModelRegistry registry(root_);
  sgm::util::Rng rng(37);
  Mlp net(small_config(), rng);
  registry.publish("s", net);

  BatcherOptions opt;
  opt.queue_capacity = 4;  // tiny on purpose: forces heavy reuse
  opt.max_batch = 4;
  opt.max_delay_s = 1e-4;
  InferenceBatcher batcher(registry, opt);

  const std::size_t kClients = 2, kQueriesEach = 300;
  const Matrix probes =
      probe_batch(kClients * kQueriesEach, net.config().input_dim, 92);
  const Matrix expected = net.forward(probes);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = 0; q < kQueriesEach; ++q) {
        const std::size_t r = c * kQueriesEach + q;
        // A tiny pool can legitimately be full; retry, never drop.
        for (;;) {
          try {
            const auto resp = batcher.query("s", row_vec(probes, r));
            if (std::memcmp(resp.y.data(), expected.row(r),
                            resp.y.size() * sizeof(double)) != 0)
              mismatches.fetch_add(1, std::memory_order_relaxed);
            break;
          } catch (const QueueFullError&) {
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Callers blocked in query() when stop() begins are answered by the
// graceful drain, each with its own bitwise-correct row: query() waits on a
// completion that a worker (or, past the drain deadline, the stop() thread)
// runs, and no caller may hang or receive another caller's answer.
TEST_F(ServeTest, BlockedQueryCallersAreAnsweredAcrossStop) {
  ModelRegistry registry(root_);
  sgm::util::Rng rng(39);
  Mlp net(small_config(), rng);
  registry.publish("s", net);

  BatcherOptions opt;
  opt.max_delay_s = 50e-3;     // the partial batch waits for stragglers ...
  opt.drain_deadline_s = 1.0;  // ... well inside the drain window
  InferenceBatcher batcher(registry, opt);

  constexpr std::size_t kCallers = 8;
  const Matrix probes = probe_batch(kCallers, net.config().input_dim, 93);
  const Matrix expected = net.forward(probes);
  std::atomic<int> returned{0}, failed{0}, mismatches{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      try {
        const auto resp = batcher.query("s", row_vec(probes, c));
        if (resp.y.size() != expected.cols() ||
            std::memcmp(resp.y.data(), expected.row(c),
                        resp.y.size() * sizeof(double)) != 0)
          mismatches.fetch_add(1);
      } catch (const std::exception&) {
        failed.fetch_add(1);
      }
      returned.fetch_add(1);
    });
  }
  while (batcher.in_flight() < kCallers && returned.load() == 0)
    std::this_thread::yield();
  EXPECT_EQ(returned.load(), 0)
      << "the batch was served before every caller was blocked in query()";
  batcher.stop();
  for (auto& t : callers) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// Backpressure: with the bounded pool exhausted by in-flight queries, a new
// query is rejected immediately with QueueFullError + rejected_total, not
// queued unboundedly.
TEST_F(ServeTest, RingFullQueriesAreRejectedNotQueued) {
  ModelRegistry registry(root_);
  sgm::util::Rng rng(38);
  Mlp net(small_config(), rng);
  registry.publish("s", net);

  ServeMetrics metrics;
  BatcherOptions opt;
  opt.queue_capacity = 2;
  opt.max_batch = 8;       // batches never fill ...
  opt.max_delay_s = 50e-3; // ... so each query holds its slot ~50 ms
  InferenceBatcher batcher(registry, opt, &metrics);

  std::atomic<bool> run{true};
  std::vector<std::thread> blockers;
  for (int b = 0; b < 2; ++b) {
    blockers.emplace_back([&] {
      while (run.load()) {
        try {
          (void)batcher.query("s", {0.25, 0.75});
        } catch (const QueueFullError&) {
          std::this_thread::yield();
        }
      }
    });
  }

  bool rejected = false;
  for (int attempt = 0; attempt < 2000 && !rejected; ++attempt) {
    try {
      (void)batcher.query("s", {0.5, 0.5});
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } catch (const QueueFullError&) {
      rejected = true;
    }
  }
  run.store(false);
  for (auto& t : blockers) t.join();
  EXPECT_TRUE(rejected) << "a full 2-slot pool must shed load";
  EXPECT_GE(metrics.rejected_total.load(), 1u);
}

// A mixed-scenario storm: responses must route to the right model.
TEST_F(ServeTest, BatcherKeepsScenariosApart) {
  ModelRegistry registry(root_);
  sgm::util::Rng rng(34);
  Mlp net_a(small_config(), rng), net_b(small_config(), rng);
  registry.publish("a", net_a);
  registry.publish("b", net_b);

  BatcherOptions opt;
  opt.max_batch = 8;
  opt.max_delay_s = 1e-3;
  InferenceBatcher batcher(registry, opt);

  const Matrix probes = probe_batch(32, net_a.config().input_dim, 55);
  const Matrix ya = net_a.forward(probes);
  const Matrix yb = net_b.forward(probes);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      const bool use_a = (c % 2 == 0);
      const Matrix& expected = use_a ? ya : yb;
      for (std::size_t q = 0; q < 4; ++q) {
        const std::size_t r = c * 4 + q;
        const auto resp =
            batcher.query(use_a ? "a" : "b", row_vec(probes, r));
        if (std::memcmp(resp.y.data(), expected.row(r),
                        resp.y.size() * sizeof(double)) != 0)
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------- hot-swap attribution soak --

TEST_F(ServeTest, SoakEveryResponseAttributableToExactlyOneVersion) {
  // 8 clients hammer the batcher while a publisher hot-swaps through 5
  // versions. For every response, y must equal version-resp.version's
  // prediction on that probe — bitwise. A torn read, a stale cache entry or
  // a mid-batch swap would all surface as a mismatch (and as a TSan report
  // in the CI serve-smoke job).
  ModelRegistry registry(root_);
  const std::size_t kVersions = 5;
  std::vector<std::unique_ptr<Mlp>> nets;
  for (std::size_t v = 0; v < kVersions; ++v) {
    sgm::util::Rng rng(1000 + v);
    nets.push_back(std::make_unique<Mlp>(small_config(), rng));
  }
  registry.publish("s", *nets[0]);

  const std::size_t kProbes = 32;
  const Matrix probes = probe_batch(kProbes, small_config().input_dim, 4242);
  std::vector<Matrix> expected;  // expected[v] = version v+1's predictions
  for (const auto& net : nets) expected.push_back(net->forward(probes));

  BatcherOptions opt;
  opt.max_batch = 16;
  opt.max_delay_s = 500e-6;
  opt.num_threads = 2;
  InferenceBatcher batcher(registry, opt);

  std::atomic<bool> publishing{true};
  std::atomic<int> bad_version{0}, bad_payload{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      sgm::util::Rng pick(9000 + c);
      for (std::size_t q = 0; q < 200; ++q) {
        const std::size_t r =
            static_cast<std::size_t>(pick.uniform() * kProbes) % kProbes;
        const auto resp = batcher.query("s", row_vec(probes, r));
        if (resp.version < 1 || resp.version > kVersions) {
          bad_version.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const Matrix& want = expected[resp.version - 1];
        if (std::memcmp(resp.y.data(), want.row(r),
                        resp.y.size() * sizeof(double)) != 0)
          bad_payload.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread publisher([&] {
    for (std::size_t v = 1; v < kVersions && publishing.load(); ++v) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      registry.publish("s", *nets[v]);
    }
  });

  for (auto& t : clients) t.join();
  publishing.store(false);
  publisher.join();

  EXPECT_EQ(bad_version.load(), 0) << "response with an unknown version";
  EXPECT_EQ(bad_payload.load(), 0)
      << "response whose payload does not match its reported version";
  EXPECT_EQ(registry.stats().publishes, kVersions);
  EXPECT_EQ(registry.acquire("s")->info.meta.model_version, kVersions);
}

// ------------------------------------------------------------- HTTP server --

std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& target, const std::string& body) {
  sgm::util::TcpSocket conn = sgm::util::tcp_connect(port);
  std::string req = method + " " + target + " HTTP/1.1\r\n";
  req += "Host: 127.0.0.1\r\nConnection: close\r\n";
  req += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  req += body;
  EXPECT_TRUE(conn.write_all(req));
  std::string response;
  char chunk[4096];
  long n;
  while ((n = conn.read_some(chunk, sizeof(chunk))) > 0)
    response.append(chunk, static_cast<std::size_t>(n));
  return response;
}

/// Writes raw bytes on a fresh connection and reads until the server closes
/// it. Used by the tests that need exact control over the wire format
/// (pipelining, hostile headers, HTTP/1.0).
std::string raw_exchange(std::uint16_t port, const std::string& bytes) {
  sgm::util::TcpSocket conn = sgm::util::tcp_connect(port);
  EXPECT_TRUE(conn.write_all(bytes));
  std::string response;
  char chunk[4096];
  long n;
  while ((n = conn.read_some(chunk, sizeof(chunk))) > 0)
    response.append(chunk, static_cast<std::size_t>(n));
  return response;
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

int response_status(const std::string& response) {
  // "HTTP/1.1 NNN ..."
  if (response.size() < 12) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string response_body(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

struct HttpStack {
  explicit HttpStack(const std::string& root)
      : registry(root), batcher(registry, batcher_opts(), &metrics) {
    server =
        std::make_unique<sgm::serve::HttpServer>(registry, batcher, metrics);
  }
  ~HttpStack() {
    server->stop();
    batcher.stop();
  }
  static BatcherOptions batcher_opts() {
    BatcherOptions opt;
    opt.max_delay_s = 200e-6;
    return opt;
  }
  ModelRegistry registry;
  ServeMetrics metrics;
  InferenceBatcher batcher;
  std::unique_ptr<sgm::serve::HttpServer> server;
};

TEST_F(ServeTest, HttpQueryRoundTripsPredictionsExactly) {
  HttpStack stack(root_);
  sgm::util::Rng rng(41);
  Mlp net(small_config(), rng);
  stack.registry.publish("poisson2d", net);
  const std::uint16_t port = stack.server->port();

  const Matrix probes = probe_batch(8, net.config().input_dim, 66);
  const Matrix expected = net.forward(probes);
  for (std::size_t r = 0; r < probes.rows(); ++r) {
    char body[256];
    std::snprintf(body, sizeof(body),
                  "{\"scenario\": \"poisson2d\", \"x\": [%.17g, %.17g]}",
                  probes.row(r)[0], probes.row(r)[1]);
    const std::string response =
        http_request(port, "POST", "/v1/query", body);
    ASSERT_EQ(response_status(response), 200) << response;
    const std::string resp_body = response_body(response);
    EXPECT_NE(resp_body.find("\"version\": 1"), std::string::npos);

    // %.17g round-trips doubles exactly: parse y back and compare bitwise.
    const std::size_t ypos = resp_body.find("\"y\": [");
    ASSERT_NE(ypos, std::string::npos) << resp_body;
    const char* cursor = resp_body.c_str() + ypos + 6;
    for (std::size_t c = 0; c < net.config().output_dim; ++c) {
      char* end = nullptr;
      const double got = std::strtod(cursor, &end);
      ASSERT_NE(cursor, end) << resp_body;
      const double want = expected.row(r)[c];
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "row " << r << " col " << c << ": served " << got
          << " != forward " << want;
      cursor = end;
      while (*cursor == ',' || *cursor == ' ') ++cursor;
    }
  }
}

TEST_F(ServeTest, HttpEndpointsAndErrorMapping) {
  HttpStack stack(root_);
  sgm::util::Rng rng(42);
  Mlp net(small_config(), rng);
  stack.registry.publish("s", net);
  const std::uint16_t port = stack.server->port();

  EXPECT_EQ(response_body(http_request(port, "GET", "/healthz", "")), "ok\n");

  const std::string models =
      response_body(http_request(port, "GET", "/v1/models", ""));
  EXPECT_NE(models.find("\"scenario\": \"s\""), std::string::npos) << models;
  EXPECT_NE(models.find("\"version\": 1"), std::string::npos) << models;

  // Exercise a query so the metrics page has data.
  (void)http_request(port, "POST", "/v1/query",
                     "{\"scenario\": \"s\", \"x\": [0.5, 0.5]}");
  const std::string metrics =
      response_body(http_request(port, "GET", "/metrics", ""));
  for (const char* expected_metric :
       {"sgm_serve_http_requests_total", "sgm_serve_queries_total",
        "sgm_serve_query_latency_seconds{quantile=\"0.99\"}",
        "sgm_serve_batches_total"})
    EXPECT_NE(metrics.find(expected_metric), std::string::npos)
        << "missing " << expected_metric << " in:\n"
        << metrics;

  EXPECT_EQ(response_status(http_request(port, "GET", "/nope", "")), 404);
  EXPECT_EQ(response_status(http_request(port, "GET", "/v1/query", "")), 405);
  EXPECT_EQ(
      response_status(http_request(port, "POST", "/v1/query", "not json")),
      400);
  EXPECT_EQ(response_status(http_request(
                port, "POST", "/v1/query",
                "{\"scenario\": \"never\", \"x\": [0.1, 0.2]}")),
            404);
  EXPECT_EQ(response_status(http_request(
                port, "POST", "/v1/query",
                "{\"scenario\": \"s\", \"x\": [0.1, 0.2, 0.3]}")),
            400);
}

TEST_F(ServeTest, HttpConcurrentClientsAllServed) {
  HttpStack stack(root_);
  sgm::util::Rng rng(43);
  Mlp net(small_config(), rng);
  stack.registry.publish("s", net);
  const std::uint16_t port = stack.server->port();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      for (int q = 0; q < 10; ++q) {
        const std::string response =
            http_request(port, "POST", "/v1/query",
                         "{\"scenario\": \"s\", \"x\": [0.25, 0.75]}");
        if (response_status(response) != 200)
          failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(stack.metrics.http_requests_total.load(), 80u);
}

// Regression: three requests pipelined into one write must yield three
// responses. The pre-PR handler rebuilt its buffer per request and dropped
// whatever it had already read past the first body.
TEST_F(ServeTest, HttpPipelinedRequestsAllGetResponses) {
  HttpStack stack(root_);
  sgm::util::Rng rng(44);
  Mlp net(small_config(), rng);
  stack.registry.publish("s", net);
  const std::uint16_t port = stack.server->port();

  const std::string q = "{\"scenario\": \"s\", \"x\": [0.25, 0.75]}";
  const std::string head = "POST /v1/query HTTP/1.1\r\nHost: h\r\n";
  const std::string clen =
      "Content-Length: " + std::to_string(q.size()) + "\r\n";
  const std::string keep = head + clen + "\r\n" + q;
  const std::string last = head + "Connection: close\r\n" + clen + "\r\n" + q;

  const std::string response = raw_exchange(port, keep + keep + last);
  EXPECT_EQ(count_of(response, "HTTP/1.1 200 OK"), 3u) << response;
  EXPECT_EQ(count_of(response, "\"y\": ["), 3u) << response;
}

// Regression: a hostile Content-Length must be rejected up front — 400 for
// non-numeric, 413 for values past max_body_bytes (including 20+-digit
// values that would wrap a uint64 parse) — instead of stalling the
// connection until the idle timeout or wrapping body_offset arithmetic.
TEST_F(ServeTest, HttpContentLengthValidation) {
  HttpStack stack(root_);
  const std::uint16_t port = stack.server->port();

  std::string resp = raw_exchange(
      port, "POST /v1/query HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
  EXPECT_EQ(response_status(resp), 400);
  EXPECT_EQ(response_body(resp), "bad request\n");

  resp = raw_exchange(port,
                      "POST /v1/query HTTP/1.1\r\nContent-Length: -1\r\n\r\n");
  EXPECT_EQ(response_status(resp), 400);

  resp = raw_exchange(
      port,
      "POST /v1/query HTTP/1.1\r\nContent-Length: "
      "18446744073709551617\r\n\r\n");  // 2^64 + 1: would wrap strtoull
  EXPECT_EQ(response_status(resp), 413);
  EXPECT_EQ(response_body(resp), "body too large\n");

  // Parseable but over max_body_bytes (default 1 MiB): the 413 must come
  // back immediately, not after waiting for a 2 MiB body that never comes.
  const auto t0 = std::chrono::steady_clock::now();
  resp = raw_exchange(
      port, "POST /v1/query HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n");
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(response_status(resp), 413);
  EXPECT_LT(elapsed_s, 8.0) << "413 must not wait for the idle timeout";
}

// Regression: error bodies echo untrusted input (the request target); a
// quote in it must come back escaped, or the JSON body is invalid.
TEST_F(ServeTest, HttpErrorBodiesEscapeUntrustedInput) {
  HttpStack stack(root_);
  const std::uint16_t port = stack.server->port();

  const std::string resp = http_request(port, "GET", "/oops\"}{\"", "");
  EXPECT_EQ(response_status(resp), 404);
  const std::string body = response_body(resp);
  EXPECT_NE(body.find("no such endpoint: /oops\\\"}{\\\""),
            std::string::npos)
      << body;
  EXPECT_EQ(body.find("/oops\"}"), std::string::npos)
      << "raw quote leaked into JSON: " << body;
}

// Regression: read-only endpoints must 405 mutating verbs, unknown HTTP
// versions are 400, and an HTTP/1.0 peer defaults to Connection: close.
TEST_F(ServeTest, HttpMethodAndVersionHandling) {
  HttpStack stack(root_);
  const std::uint16_t port = stack.server->port();

  EXPECT_EQ(response_status(http_request(port, "POST", "/healthz", "")), 405);
  EXPECT_EQ(response_status(http_request(port, "POST", "/metrics", "")), 405);
  EXPECT_EQ(response_status(http_request(port, "DELETE", "/v1/models", "")),
            405);

  std::string resp = raw_exchange(port, "GET /healthz HTTP/9.9\r\n\r\n");
  EXPECT_EQ(response_status(resp), 400);

  // No Connection header: an HTTP/1.0 peer does not speak keep-alive, so
  // the server must answer and close (raw_exchange reads until EOF).
  resp = raw_exchange(port, "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_EQ(response_status(resp), 200);
  EXPECT_NE(resp.find("Connection: close"), std::string::npos) << resp;
  EXPECT_EQ(response_body(resp), "ok\n");
}

// Backpressure end to end: a full batcher queue surfaces as HTTP 503 and
// sgm_serve_rejected_total, not an unbounded queue or a hung connection.
TEST_F(ServeTest, HttpQueueFullReturns503) {
  ModelRegistry registry(root_);
  ServeMetrics metrics;
  BatcherOptions bopt;
  bopt.queue_capacity = 2;
  bopt.max_batch = 8;        // batches never fill ...
  bopt.max_delay_s = 50e-3;  // ... so each query holds its slot ~50 ms
  InferenceBatcher batcher(registry, bopt, &metrics);
  sgm::serve::HttpServer server(registry, batcher, metrics);

  sgm::util::Rng rng(45);
  Mlp net(small_config(), rng);
  registry.publish("s", net);
  const std::uint16_t port = server.port();

  std::atomic<bool> run{true};
  std::vector<std::thread> blockers;
  for (int b = 0; b < 2; ++b) {
    blockers.emplace_back([&] {
      while (run.load()) {
        try {
          (void)batcher.query("s", {0.25, 0.75});
        } catch (const QueueFullError&) {
          std::this_thread::yield();
        }
      }
    });
  }

  bool saw_503 = false;
  for (int attempt = 0; attempt < 400 && !saw_503; ++attempt) {
    const std::string resp =
        http_request(port, "POST", "/v1/query",
                     "{\"scenario\": \"s\", \"x\": [0.5, 0.5]}");
    saw_503 = response_status(resp) == 503;
  }
  run.store(false);
  for (auto& t : blockers) t.join();
  server.stop();
  batcher.stop();

  EXPECT_TRUE(saw_503) << "a full 2-slot pool must surface as HTTP 503";
  EXPECT_GE(metrics.rejected_total.load(), 1u);
}

// ------------------------------------------------ failure-model regressions --

/// Reads a checkpoint file, applies `mutate`, writes it back. Helper for
/// the corruption-recovery tests below.
void corrupt_file(const fs::path& path,
                  const std::function<void(std::string&)>& mutate) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  mutate(bytes);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Durability acceptance: a reopened registry must quarantine checkpoints
// that fail validation — truncated, bit-flipped, or zero-length — fall back
// to the newest intact version, and never reuse a quarantined version
// number for future publishes.
TEST_F(ServeTest, RegistryReopenQuarantinesCorruptCheckpoints) {
  sgm::util::Rng rng(51);
  Mlp net(small_config(), rng);
  {
    ModelRegistry registry(root_);
    for (int v = 0; v < 4; ++v) registry.publish("s", net);
  }
  const fs::path dir = fs::path(root_) / "s";
  // v2: hard truncation (half the file), v3: single bit flip mid-payload
  // (caught by the checksum trailer), v4: zero-length residue.
  corrupt_file(dir / "v2.ckpt",
               [](std::string& b) { b.resize(b.size() / 2); });
  corrupt_file(dir / "v3.ckpt", [](std::string& b) { b[b.size() / 2] ^= 0x10; });
  corrupt_file(dir / "v4.ckpt", [](std::string& b) { b.clear(); });

  ModelRegistry reopened(root_);
  const auto lease = reopened.acquire("s");
  EXPECT_EQ(lease->info.meta.model_version, 1)
      << "must fall back to the newest intact checkpoint";
  EXPECT_EQ(reopened.stats().quarantined, 3u);
  EXPECT_TRUE(fs::exists(dir / "v2.ckpt.quarantined"));
  EXPECT_TRUE(fs::exists(dir / "v3.ckpt.quarantined"));
  EXPECT_TRUE(fs::exists(dir / "v4.ckpt.quarantined"));
  EXPECT_FALSE(fs::exists(dir / "v2.ckpt"));

  // Version allocation must skip the quarantined 2..4 — reusing a number
  // would let a stale sidelined file shadow a fresh publish.
  EXPECT_EQ(reopened.publish("s", net), 5u);
  EXPECT_EQ(reopened.acquire("s")->info.meta.model_version, 5);
}

/// http_request with an extra raw header line spliced into the head.
std::string http_request_with_header(std::uint16_t port,
                                     const std::string& target,
                                     const std::string& header,
                                     const std::string& body) {
  std::string req = "POST " + target + " HTTP/1.1\r\n";
  req += "Host: 127.0.0.1\r\nConnection: close\r\n";
  req += header + "\r\n";
  req += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  req += body;
  return raw_exchange(port, req);
}

// Deadline budgets end to end: a request whose x-deadline-ms budget is
// below the batcher's flush delay must be shed up front with 503 +
// Retry-After and counted in sgm_serve_deadline_shed_total; a malformed
// budget is the client's bug (400), and requests without budgets are
// untouched.
TEST_F(ServeTest, HttpDeadlineShedReturns503WithRetryAfter) {
  HttpStack stack(root_);
  sgm::util::Rng rng(52);
  Mlp net(small_config(), rng);
  stack.registry.publish("s", net);
  const std::uint16_t port = stack.server->port();
  const std::string body = "{\"scenario\": \"s\", \"x\": [0.5, 0.5]}";

  // Estimated wait is floored at max_delay_s (200 us): a 50 us budget can
  // never be met, so the shed decision is deterministic.
  const std::string resp = http_request_with_header(
      port, "/v1/query", "x-deadline-ms: 0.05", body);
  EXPECT_EQ(response_status(resp), 503) << resp;
  EXPECT_NE(resp.find("Retry-After: "), std::string::npos)
      << "shed responses must tell the client when to come back: " << resp;
  EXPECT_GE(stack.metrics.deadline_shed_total.load(), 1u);

  // A generous budget and no budget at all must both serve normally.
  EXPECT_EQ(response_status(http_request_with_header(
                port, "/v1/query", "x-deadline-ms: 5000", body)),
            200);
  EXPECT_EQ(response_status(http_request(port, "POST", "/v1/query", body)),
            200);

  // Malformed budgets are rejected loudly, not silently ignored.
  for (const char* bad :
       {"x-deadline-ms: nope", "x-deadline-ms: -3", "x-deadline-ms: 0",
        "x-deadline-ms: inf", "x-deadline-ms: 12garbage"}) {
    EXPECT_EQ(response_status(
                  http_request_with_header(port, "/v1/query", bad, body)),
              400)
        << bad;
  }

  // Both failure-model counters are on the exposition page.
  const std::string metrics_body =
      response_body(http_request(port, "GET", "/metrics", ""));
  EXPECT_NE(metrics_body.find("sgm_serve_deadline_shed_total"),
            std::string::npos)
      << metrics_body;
  EXPECT_NE(metrics_body.find("sgm_registry_quarantined_total"),
            std::string::npos)
      << metrics_body;
}

// /healthz is a state machine, not a constant: ok -> degraded (latched for
// one probe after a shed) -> ok, and draining (503) once stop begins.
TEST_F(ServeTest, HealthzReportsDegradedAfterShedAndDrainingOnStop) {
  HttpStack stack(root_);
  sgm::util::Rng rng(53);
  Mlp net(small_config(), rng);
  stack.registry.publish("s", net);
  const std::uint16_t port = stack.server->port();

  std::string resp = http_request(port, "GET", "/healthz", "");
  EXPECT_EQ(response_status(resp), 200);
  EXPECT_EQ(response_body(resp), "ok\n");

  // One shed latches exactly one degraded probe.
  const std::string body = "{\"scenario\": \"s\", \"x\": [0.5, 0.5]}";
  EXPECT_EQ(response_status(http_request_with_header(
                port, "/v1/query", "x-deadline-ms: 0.05", body)),
            503);
  resp = http_request(port, "GET", "/healthz", "");
  EXPECT_EQ(response_status(resp), 200) << "degraded still serves traffic";
  EXPECT_EQ(response_body(resp), "degraded\n");
  EXPECT_EQ(response_body(http_request(port, "GET", "/healthz", "")), "ok\n")
      << "the shed latch is consumed by one probe";

  // Draining: load balancers must see 503 and stop routing here.
  stack.batcher.stop();
  resp = http_request(port, "GET", "/healthz", "");
  EXPECT_EQ(response_status(resp), 503);
  EXPECT_EQ(response_body(resp), "draining\n");
}

// The degradation loop closed end to end: ring rejections surface as 503 +
// Retry-After, and a client that honors them with exponential backoff gets
// served once capacity returns — no lost requests, no manual intervention.
TEST_F(ServeTest, Http503RetryWithBackoffEventuallySucceeds) {
  ModelRegistry registry(root_);
  ServeMetrics metrics;
  BatcherOptions bopt;
  bopt.queue_capacity = 2;
  bopt.max_batch = 8;        // batches never fill ...
  bopt.max_delay_s = 20e-3;  // ... so each query holds its slot ~20 ms
  InferenceBatcher batcher(registry, bopt, &metrics);
  sgm::serve::HttpServer server(registry, batcher, metrics);

  sgm::util::Rng rng(54);
  Mlp net(small_config(), rng);
  registry.publish("s", net);
  const std::uint16_t port = server.port();

  std::atomic<bool> run{true};
  std::vector<std::thread> blockers;
  for (int b = 0; b < 2; ++b) {
    blockers.emplace_back([&] {
      while (run.load()) {
        try {
          (void)batcher.query("s", {0.25, 0.75});
        } catch (const QueueFullError&) {
          std::this_thread::yield();
        }
      }
    });
  }

  // Phase 1: drive until the saturated ring surfaces as a 503 with a
  // Retry-After hint (200s are possible while the blockers race for
  // freed slots — keep probing).
  const std::string body = "{\"scenario\": \"s\", \"x\": [0.5, 0.5]}";
  bool saw_503 = false;
  for (int attempt = 0; attempt < 400 && !saw_503; ++attempt) {
    const std::string resp = http_request(port, "POST", "/v1/query", body);
    if (response_status(resp) == 503) {
      saw_503 = true;
      EXPECT_NE(resp.find("Retry-After: "), std::string::npos) << resp;
    }
  }

  // Phase 2: release the pool and let a well-behaved client ride out the
  // recovery with exponential backoff — it must eventually be served.
  run.store(false);
  for (auto& t : blockers) t.join();
  bool succeeded = false;
  auto backoff = std::chrono::milliseconds(1);
  for (int attempt = 0; attempt < 40 && !succeeded; ++attempt) {
    const std::string resp = http_request(port, "POST", "/v1/query", body);
    const int status = response_status(resp);
    if (status == 200) {
      succeeded = true;
      break;
    }
    ASSERT_EQ(status, 503) << resp;
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(50));
  }
  server.stop();
  batcher.stop();

  EXPECT_TRUE(saw_503) << "a full 2-slot ring must surface as HTTP 503";
  EXPECT_TRUE(succeeded)
      << "retry-with-backoff must succeed once the pool drains";
  EXPECT_GE(metrics.rejected_total.load(), 1u);
}

// ----------------------------------------- PR 10: reactor + request-path fixes

/// Reads exactly one complete HTTP response (head + Content-Length body)
/// from a keep-alive connection. `leftover` carries bytes of the *next*
/// response across calls, so pipelined responses split correctly no matter
/// how they chunk onto reads. Returns "" on EOF/error before completion.
std::string read_one_response(sgm::util::TcpSocket& conn,
                              std::string& leftover) {
  std::string buf = std::move(leftover);
  leftover.clear();
  for (;;) {
    const std::size_t head_end = buf.find("\r\n\r\n");
    if (head_end != std::string::npos) {
      std::size_t len = 0;
      const std::size_t cl = buf.find("Content-Length: ");
      if (cl != std::string::npos && cl < head_end)
        len = std::strtoul(buf.c_str() + cl + 16, nullptr, 10);
      const std::size_t total = head_end + 4 + len;
      if (buf.size() >= total) {
        leftover = buf.substr(total);
        return buf.substr(0, total);
      }
    }
    char chunk[4096];
    const long n = conn.read_some(chunk, sizeof(chunk));
    if (n <= 0) return "";
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// The request-path contracts of the epoll reactor.
class HttpIo : public ServeTest {};

TEST_F(HttpIo, QueryAndPipelining) {
  HttpStack stack(root_);
  sgm::util::Rng rng(61);
  Mlp net(small_config(), rng);
  stack.registry.publish("s", net);
  const std::uint16_t port = stack.server->port();

  const std::string body = "{\"scenario\": \"s\", \"x\": [0.5, 0.5]}";
  EXPECT_EQ(response_status(http_request(port, "POST", "/v1/query", body)),
            200);

  // Three pipelined requests in one write: exactly three responses, in
  // order, on one connection.
  std::string wire;
  for (int i = 0; i < 3; ++i) {
    wire += "POST /v1/query HTTP/1.1\r\nHost: h\r\n";
    wire += (i == 2) ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    wire += body;
  }
  const std::string responses = raw_exchange(port, wire);
  EXPECT_EQ(count_of(responses, "HTTP/1.1 200"), 3u) << responses;
}

// Satellite 1: nan/inf and overflowing literals like 1e999 are not JSON and
// must never reach the model as silent poison — reject with 400 at parse.
TEST_F(HttpIo, NonFiniteNumbersRejectedWith400) {
  HttpStack stack(root_);
  sgm::util::Rng rng(62);
  Mlp net(small_config(), rng);
  stack.registry.publish("s", net);
  const std::uint16_t port = stack.server->port();

  for (const char* bad :
       {"{\"scenario\": \"s\", \"x\": [nan, 0.5]}",
        "{\"scenario\": \"s\", \"x\": [inf, 0.5]}",
        "{\"scenario\": \"s\", \"x\": [-inf, 0.5]}",
        "{\"scenario\": \"s\", \"x\": [1e999, 0.5]}",
        "{\"scenario\": \"s\", \"x\": [0.5, -1e999]}"}) {
    const std::string resp = http_request(port, "POST", "/v1/query", bad);
    EXPECT_EQ(response_status(resp), 400) << bad << "\n" << resp;
  }
  // The connection machinery is unharmed: a clean request still serves.
  EXPECT_EQ(response_status(http_request(
                port, "POST", "/v1/query",
                "{\"scenario\": \"s\", \"x\": [0.5, 0.5]}")),
            200);
}

// Defense in depth on the response side: if the model ever produces a
// non-finite prediction, the server refuses to serialize it (a bare `nan`
// token is not JSON) and fails the request with 500 instead.
TEST_F(ServeTest, RenderQueryBodyRefusesNonFinitePredictions) {
  int status = 200;
  const std::string ok =
      sgm::serve::http::render_query_body("s", 1, {0.5, -0.25}, status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(ok.find("\"y\": ["), std::string::npos) << ok;

  for (const double poison : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    status = 200;
    const std::string err =
        sgm::serve::http::render_query_body("s", 1, {0.5, poison}, status);
    EXPECT_EQ(status, 500);
    EXPECT_NE(err.find("non-finite"), std::string::npos) << err;
    EXPECT_EQ(err.find("nan"), std::string::npos) << err;
    EXPECT_EQ(err.find("inf"), std::string::npos) << err;
  }
}

// Satellite 2 (the ISSUE's exact reproducer): a scenario literally named
// "x" — so the *value* of "scenario" spells the next key — must parse. The
// old find_key raw-scanned for `"x"` and matched the one inside the
// scenario string, then failed to find an array after it.
TEST_F(HttpIo, ScenarioValueCannotShadowBodyKey) {
  HttpStack stack(root_);
  MlpConfig cfg = small_config();
  cfg.input_dim = 1;
  sgm::util::Rng rng(63);
  Mlp net(cfg, rng);
  stack.registry.publish("x", net);
  const std::uint16_t port = stack.server->port();

  Matrix probe(1, 1);
  probe.row(0)[0] = 1.0;
  const Matrix want = net.forward(probe);

  const std::string resp = http_request(port, "POST", "/v1/query",
                                        "{\"scenario\": \"x\", \"x\": [1]}");
  ASSERT_EQ(response_status(resp), 200) << resp;
  const std::string body = response_body(resp);
  const std::size_t ypos = body.find("\"y\": [");
  ASSERT_NE(ypos, std::string::npos) << body;
  const char* cursor = body.c_str() + ypos + 6;
  for (std::size_t c = 0; c < cfg.output_dim; ++c) {
    char* end = nullptr;
    const double got = std::strtod(cursor, &end);
    ASSERT_NE(cursor, end) << body;
    EXPECT_EQ(std::memcmp(&got, &want.row(0)[c], sizeof(double)), 0)
        << "col " << c << ": served " << got << " != " << want.row(0)[c];
    cursor = end;
    while (*cursor == ',' || *cursor == ' ') ++cursor;
  }
}

// Satellite 3b: the Connection header is a comma-separated token list.
// "keep-alive, Upgrade" on an HTTP/1.0 request must keep the connection
// alive (the old exact-match compare saw neither token and fell back to the
// 1.0 close default); "Upgrade, close" on HTTP/1.1 must close.
TEST_F(HttpIo, ConnectionHeaderParsedAsTokenList) {
  HttpStack stack(root_);
  sgm::util::Rng rng(64);
  Mlp net(small_config(), rng);
  stack.registry.publish("s", net);
  const std::uint16_t port = stack.server->port();

  sgm::util::TcpSocket conn = sgm::util::tcp_connect(port);
  std::string leftover;
  ASSERT_TRUE(conn.write_all(
      "GET /healthz HTTP/1.0\r\nHost: h\r\n"
      "Connection: keep-alive, Upgrade\r\n\r\n"));
  std::string resp = read_one_response(conn, leftover);
  ASSERT_EQ(response_status(resp), 200) << resp;
  EXPECT_NE(resp.find("Connection: keep-alive"), std::string::npos) << resp;

  // The connection really is still alive: a second request serves on it.
  ASSERT_TRUE(conn.write_all(
      "GET /healthz HTTP/1.0\r\nHost: h\r\nConnection: close\r\n\r\n"));
  resp = read_one_response(conn, leftover);
  ASSERT_EQ(response_status(resp), 200) << resp;
  EXPECT_NE(resp.find("Connection: close"), std::string::npos) << resp;

  // Any `close` token wins regardless of its neighbors.
  const std::string closed = raw_exchange(
      port,
      "GET /healthz HTTP/1.1\r\nHost: h\r\nConnection: Upgrade, close\r\n\r\n");
  EXPECT_EQ(response_status(closed), 200) << closed;
  EXPECT_NE(closed.find("Connection: close"), std::string::npos) << closed;
}

// Satellite 3a: EINTR while parked waiting for readiness is a retry, never
// a disconnect. The failpoint fakes a signal delivery in the reactor's
// epoll_wait; a healthy keep-alive connection must survive it and serve the
// next request.
TEST_F(HttpIo, EintrDuringIdleWaitIsRetriedNotFatal) {
  HttpStack stack(root_);
  sgm::util::Rng rng(65);
  Mlp net(small_config(), rng);
  stack.registry.publish("s", net);
  const std::uint16_t port = stack.server->port();

  sgm::util::TcpSocket conn = sgm::util::tcp_connect(port);
  std::string leftover;
  sgm::util::FailpointRegistry::instance().arm("http.epoll_eintr", "once");
  ASSERT_TRUE(conn.write_all(
      "GET /healthz HTTP/1.1\r\nHost: h\r\nConnection: keep-alive\r\n\r\n"));
  std::string resp = read_one_response(conn, leftover);
  sgm::util::FailpointRegistry::instance().disarm_all();
  ASSERT_EQ(response_status(resp), 200)
      << "EINTR must not tear down the connection: " << resp;

  // Still alive after the fake signal: the next request serves too.
  ASSERT_TRUE(conn.write_all(
      "GET /healthz HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"));
  resp = read_one_response(conn, leftover);
  EXPECT_EQ(response_status(resp), 200) << resp;
}

// The open-connections gauge tracks accepted-but-not-yet-closed sockets.
TEST_F(HttpIo, MetricsReportOpenConnectionsGauge) {
  HttpStack stack(root_);
  const std::uint16_t port = stack.server->port();

  // Hold one keep-alive connection open while scraping on a second: the
  // gauge must count at least the held one plus the scraper itself.
  sgm::util::TcpSocket held = sgm::util::tcp_connect(port);
  std::string leftover;
  ASSERT_TRUE(held.write_all(
      "GET /healthz HTTP/1.1\r\nHost: h\r\nConnection: keep-alive\r\n\r\n"));
  ASSERT_EQ(response_status(read_one_response(held, leftover)), 200);

  const std::string metrics =
      response_body(http_request(port, "GET", "/metrics", ""));
  const std::size_t pos = metrics.find("gauge\nsgm_serve_open_connections ");
  ASSERT_NE(pos, std::string::npos) << metrics;
  const unsigned long open =
      std::strtoul(metrics.c_str() + pos + 33, nullptr, 10);
  EXPECT_GE(open, 2u) << metrics;
}

// Satellite 4: the reactor's load-bearing claim — hundreds of concurrent
// keep-alive connections, all pipelining, served by a *fixed* reactor
// thread count, with every response bitwise-attributable to the model. 16
// client threads drive 16 sockets each (256 concurrent connections); each
// round writes a 4-deep pipeline per socket and then validates all four
// responses in order. Runs under TSan in the CI serve-smoke job.
TEST_F(ServeTest, ReactorServes256PipelinedConnectionsBitwiseExact) {
  ModelRegistry registry(root_);
  ServeMetrics metrics;
  BatcherOptions bopt;
  bopt.max_delay_s = 200e-6;
  bopt.queue_capacity = 4096;  // 256 conns x 4-deep pipelines, no 503s
  InferenceBatcher batcher(registry, bopt, &metrics);
  sgm::serve::HttpServerOptions hopt;  // reactor defaults
  sgm::serve::HttpServer server(registry, batcher, metrics, hopt);

  sgm::util::Rng rng(66);
  Mlp net(small_config(), rng);
  registry.publish("s", net);
  const std::uint16_t port = server.port();

  const std::size_t kProbes = 32;
  const Matrix probes = probe_batch(kProbes, net.config().input_dim, 6767);
  const Matrix expected = net.forward(probes);

  constexpr std::size_t kThreads = 16, kConnsPerThread = 16, kRounds = 3,
                        kPipeline = 4;
  std::vector<sgm::util::TcpSocket> conns(kThreads * kConnsPerThread);
  for (auto& c : conns) c = sgm::util::tcp_connect(port);

  std::atomic<int> bad_status{0}, bad_payload{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::string> leftovers(kConnsPerThread);
      for (std::size_t round = 0; round < kRounds; ++round) {
        // Write phase: a 4-deep pipeline on every socket this thread owns.
        for (std::size_t s = 0; s < kConnsPerThread; ++s) {
          std::string wire;
          for (std::size_t q = 0; q < kPipeline; ++q) {
            const std::size_t r = (t * 131 + s * 17 + round * 5 + q) % kProbes;
            char body[256];
            std::snprintf(body, sizeof(body),
                          "{\"scenario\": \"s\", \"x\": [%.17g, %.17g]}",
                          probes.row(r)[0], probes.row(r)[1]);
            wire += "POST /v1/query HTTP/1.1\r\nHost: h\r\n";
            wire += "Connection: keep-alive\r\n";
            wire += "Content-Length: " + std::to_string(std::strlen(body)) +
                    "\r\n\r\n";
            wire += body;
          }
          if (!conns[t * kConnsPerThread + s].write_all(wire))
            bad_status.fetch_add(1, std::memory_order_relaxed);
        }
        // Read phase: four in-order responses per socket, each bitwise
        // equal to the lone forward() on its probe row.
        for (std::size_t s = 0; s < kConnsPerThread; ++s) {
          sgm::util::TcpSocket& conn = conns[t * kConnsPerThread + s];
          for (std::size_t q = 0; q < kPipeline; ++q) {
            const std::size_t r = (t * 131 + s * 17 + round * 5 + q) % kProbes;
            const std::string resp = read_one_response(conn, leftovers[s]);
            if (response_status(resp) != 200) {
              bad_status.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            const std::string body = response_body(resp);
            const std::size_t ypos = body.find("\"y\": [");
            const char* cursor = body.c_str() + ypos + 6;
            bool row_ok = ypos != std::string::npos;
            for (std::size_t c = 0; row_ok && c < expected.cols(); ++c) {
              char* end = nullptr;
              const double got = std::strtod(cursor, &end);
              row_ok = end != cursor &&
                       std::memcmp(&got, &expected.row(r)[c],
                                   sizeof(double)) == 0;
              cursor = end;
              while (*cursor == ',' || *cursor == ' ') ++cursor;
            }
            if (!row_ok) bad_payload.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(bad_status.load(), 0) << "non-200 under the keep-alive soak";
  EXPECT_EQ(bad_payload.load(), 0)
      << "response not bitwise equal to its probe's lone forward()";
  EXPECT_GE(metrics.queries_total.load(),
            kThreads * kConnsPerThread * kRounds * kPipeline);

  // The whole soak ran on the default fixed reactor thread count; the
  // gauge saw every connection.
  conns.clear();  // EOF all 256; server reaps them before stop()
  server.stop();
  batcher.stop();
}

// query_async is the reactor's dispatch primitive: the completion must
// deliver the same bitwise payload the blocking query() returns.
TEST_F(ServeTest, QueryAsyncDeliversBitwiseEqualCompletion) {
  ModelRegistry registry(root_);
  sgm::util::Rng rng(67);
  Mlp net(small_config(), rng);
  registry.publish("s", net);

  BatcherOptions opt;
  opt.max_delay_s = 100e-6;
  InferenceBatcher batcher(registry, opt);

  struct Ctx {
    std::atomic<bool> done{false};
    InferenceBatcher::Response resp;
    sgm::serve::QueryError error = sgm::serve::QueryError::kNone;
    std::uint64_t tag1 = 0, tag2 = 0;
  } ctx;
  batcher.query_async(
      "s", {0.25, 0.75}, /*deadline_s=*/-1.0,
      [](void* p, std::uint64_t t1, std::uint64_t t2,
         InferenceBatcher::Response&& r, sgm::serve::QueryError e,
         const std::string&) {
        auto* c = static_cast<Ctx*>(p);
        c->resp = std::move(r);
        c->error = e;
        c->tag1 = t1;
        c->tag2 = t2;
        c->done.store(true, std::memory_order_release);
      },
      &ctx, 7, 9);
  while (!ctx.done.load(std::memory_order_acquire)) std::this_thread::yield();

  EXPECT_EQ(ctx.error, sgm::serve::QueryError::kNone);
  EXPECT_EQ(ctx.tag1, 7u);
  EXPECT_EQ(ctx.tag2, 9u);
  const auto blocking = batcher.query("s", {0.25, 0.75});
  ASSERT_EQ(ctx.resp.y.size(), blocking.y.size());
  EXPECT_EQ(std::memcmp(ctx.resp.y.data(), blocking.y.data(),
                        blocking.y.size() * sizeof(double)),
            0);
  EXPECT_EQ(ctx.resp.version, blocking.version);

  // Unknown scenarios fail through the completion, not an exception.
  struct ErrCtx {
    std::atomic<bool> done{false};
    sgm::serve::QueryError error = sgm::serve::QueryError::kNone;
  } ectx;
  batcher.query_async(
      "ghost", {0.1, 0.2}, -1.0,
      [](void* p, std::uint64_t, std::uint64_t, InferenceBatcher::Response&&,
         sgm::serve::QueryError e, const std::string&) {
        auto* c = static_cast<ErrCtx*>(p);
        c->error = e;
        c->done.store(true, std::memory_order_release);
      },
      &ectx, 0, 0);
  while (!ectx.done.load(std::memory_order_acquire)) std::this_thread::yield();
  EXPECT_EQ(ectx.error, sgm::serve::QueryError::kNotFound);
  batcher.stop();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// A client that connects after stop() began waits in the listener's kernel
// backlog, so the (still open) listener stays readable while accept_nb
// refuses the connection. Reactor 0 must stop watching the listener when it
// sees the drain; if it does not, its level-triggered epoll spins on that
// readiness until the hard stop. One query held ~1 s by the flush delay
// keeps the drain open long enough to tell a spin from an idle wait.
TEST_F(ServeTest, LateConnectDuringDrainDoesNotSpinTheReactor) {
  ModelRegistry registry(root_);
  ServeMetrics metrics;
  BatcherOptions bopt;
  bopt.max_delay_s = 1.0;
  InferenceBatcher batcher(registry, bopt, &metrics);
  sgm::serve::HttpServer server(registry, batcher, metrics);

  sgm::util::Rng rng(68);
  Mlp net(small_config(), rng);
  registry.publish("s", net);
  const std::uint16_t port = server.port();

  std::string held;
  std::thread client([&] {
    held = http_request(port, "POST", "/v1/query",
                        "{\"scenario\": \"s\", \"x\": [0.5, 0.5]}");
  });
  while (batcher.in_flight() == 0) std::this_thread::yield();

  const double cpu_before = process_cpu_s();
  const auto wall_before = std::chrono::steady_clock::now();
  std::thread stopper([&] { server.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  sgm::util::TcpSocket late = sgm::util::tcp_connect(port);
  stopper.join();
  const double stop_wall_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - wall_before)
                                 .count();
  const double stop_cpu_s = process_cpu_s() - cpu_before;
  client.join();
  batcher.stop();

  EXPECT_EQ(response_status(held), 200) << held;
  EXPECT_LT(stop_cpu_s, 0.5 * stop_wall_s)
      << "stop() took " << stop_wall_s << " s wall but the process burned "
      << stop_cpu_s << " s CPU";
}

}  // namespace
