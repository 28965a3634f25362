// Serving-engine throughput/latency benchmark: closed-loop clients hammer
// the InferenceBatcher (the same path the HTTP front end uses, minus socket
// I/O) against a registry-published scenario network, and the batcher's
// coalescing turns the concurrent single-row queries into blocked-GEMM
// forwards.
//
// Arms: a client-count sweep at the smoke-scale poisson2d network. Each arm
// reports queries/s, p50/p99/p999 end-to-end latency (enqueue -> response,
// from the engine's own HDR histogram) and the realized mean batch size —
// the number that explains the throughput curve.
//
// I/O arms (`--io`): `direct` (default; clients call the blocking
// InferenceBatcher::query in-process, no sockets) and `reactor` (full HTTP
// loopback against the epoll reactor: N keep-alive connections, each
// keeping a fixed pipeline of requests in flight, multiplexed onto a few
// client threads).
//
// Env knobs:
//   SGM_BENCH_SERVE_SECONDS  wall seconds per arm          (default 2)
//   SGM_BENCH_SERVE_CLIENTS  comma list of client counts   (default 1,4,16,64)
//                            (reactor arm: connections)
//   SGM_BENCH_SERVE_BATCH    batcher max_batch             (default 64)
//   SGM_BENCH_SERVE_IO       direct | reactor              (default direct)
//   SGM_BENCH_SERVE_PIPELINE HTTP requests in flight/conn  (default 8)
//   SGM_BENCH_THREADS        forward threads per batch     (default 2)
//   SGM_BENCH_JSON=1         write BENCH_serve.json next to the binary
//                            (uploaded by the serve-smoke CI job; baselines
//                            committed at bench/baselines/BENCH_serve_pr6.json
//                            [PR 6 mutex queue, since removed],
//                            BENCH_serve_pr8_ring.json [ring] and
//                            BENCH_serve_pr10_reactor.json [reactor sweep])

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "nn/mlp.hpp"
#include "pinn/scenario.hpp"
#include "serve/batcher.hpp"
#include "serve/http_server.hpp"
#include "serve/metrics.hpp"
#include "serve/model_registry.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/timer.hpp"

using namespace sgm;

namespace {

double env_double(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) {
    const double parsed = std::atof(v);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

std::size_t env_size_t(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long long parsed = std::atoll(v);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

std::vector<std::size_t> client_counts() {
  std::vector<std::size_t> counts;
  const char* v = std::getenv("SGM_BENCH_SERVE_CLIENTS");
  std::string spec = v ? v : "1,4,16,64";
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const long long parsed = std::atoll(tok.c_str());
    if (parsed > 0) counts.push_back(static_cast<std::size_t>(parsed));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (counts.empty()) counts = {1, 4, 16, 64};
  return counts;
}

struct ArmResult {
  std::size_t clients = 0;
  std::uint64_t queries = 0;
  double wall_s = 0.0;
  double qps = 0.0;
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;
  double mean_batch = 0.0;
  double full_flush_fraction = 0.0;
};

ArmResult run_arm(serve::ModelRegistry& registry, const std::string& scenario,
                  std::size_t input_dim, std::size_t clients, double seconds,
                  std::size_t max_batch, std::size_t num_threads) {
  serve::ServeMetrics metrics;
  serve::BatcherOptions opt;
  opt.max_batch = max_batch;
  opt.max_delay_s = 100e-6;
  opt.num_threads = num_threads;
  // Closed-loop clients never have more than `clients` queries in flight,
  // but keep headroom so the pool never backpressures the benchmark itself.
  opt.queue_capacity = std::max<std::size_t>(1024, 4 * clients);
  serve::InferenceBatcher batcher(registry, opt, &metrics);

  // Pre-generate each client's probe set so the hot loop is queries only.
  const std::size_t kProbes = 256;
  std::vector<std::vector<std::vector<double>>> probes(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    util::Rng rng(100 + c);
    probes[c].resize(kProbes);
    for (auto& x : probes[c]) {
      x.resize(input_dim);
      for (auto& v : x) v = rng.uniform();
    }
  }

  std::atomic<bool> run{true};
  std::vector<std::uint64_t> served(clients, 0);
  std::vector<std::thread> threads;
  util::WallTimer timer;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t count = 0;
      while (run.load(std::memory_order_relaxed)) {
        (void)batcher.query(scenario, probes[c][count % kProbes]);
        ++count;
      }
      served[c] = count;
    });
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(seconds));
  run.store(false);
  for (auto& t : threads) t.join();
  const double wall = timer.elapsed_s();
  batcher.stop();

  ArmResult r;
  r.clients = clients;
  for (const auto count : served) r.queries += count;
  r.wall_s = wall;
  r.qps = static_cast<double>(r.queries) / wall;
  const auto snap = metrics.query_latency.snapshot();
  r.p50_us = snap.quantile(0.5) * 1e6;
  r.p99_us = snap.quantile(0.99) * 1e6;
  r.p999_us = snap.quantile(0.999) * 1e6;
  const auto batches = metrics.batches_total.load();
  r.mean_batch = batches ? static_cast<double>(
                               metrics.batched_queries_total.load()) /
                               static_cast<double>(batches)
                         : 0.0;
  r.full_flush_fraction =
      batches ? static_cast<double>(metrics.full_flushes_total.load()) /
                    static_cast<double>(batches)
              : 0.0;
  return r;
}

// --- HTTP loopback arm -------------------------------------------------------

/// Counts and removes the complete HTTP responses at the front of `buf`
/// (head + Content-Length body). Partial tails stay for the next read.
std::size_t consume_responses(std::string& buf) {
  std::size_t n = 0, pos = 0;
  for (;;) {
    const std::size_t head_end = buf.find("\r\n\r\n", pos);
    if (head_end == std::string::npos) break;
    std::size_t len = 0;
    const std::size_t cl = buf.find("Content-Length: ", pos);
    if (cl != std::string::npos && cl < head_end)
      len = std::strtoul(buf.c_str() + cl + 16, nullptr, 10);
    const std::size_t total = head_end + 4 + len;
    if (buf.size() < total) break;
    pos = total;
    ++n;
  }
  buf.erase(0, pos);
  return n;
}

/// Closed-loop HTTP clients over loopback: `clients` keep-alive
/// connections, each primed with `pipeline` requests; every consumed
/// response is immediately replaced, so the in-flight depth per connection
/// is constant. A handful of client threads round-robin their connections
/// with blocking reads — safe because the server never waits on a client
/// read, so every connection always has responses on the way.
ArmResult run_http_arm(serve::ModelRegistry& registry,
                       const std::string& scenario, std::size_t input_dim,
                       std::size_t clients, double seconds,
                       std::size_t max_batch, std::size_t num_threads,
                       std::size_t pipeline) {
  serve::ServeMetrics metrics;
  serve::BatcherOptions opt;
  opt.max_batch = max_batch;
  opt.max_delay_s = 100e-6;
  opt.num_threads = num_threads;
  opt.queue_capacity = std::max<std::size_t>(1024, 2 * clients * pipeline);
  serve::InferenceBatcher batcher(registry, opt, &metrics);

  serve::HttpServerOptions hopt;
  hopt.max_pipeline = std::max<std::size_t>(64, 2 * pipeline);
  serve::HttpServer server(registry, batcher, metrics, hopt);
  const std::uint16_t port = server.port();

  // Pre-render the request wire bytes so the hot loop is I/O only.
  const std::size_t kProbes = 256;
  std::vector<std::string> wire(kProbes);
  util::Rng rng(4242);
  for (auto& w : wire) {
    std::string body = "{\"scenario\": \"" + scenario + "\", \"x\": [";
    for (std::size_t d = 0; d < input_dim; ++d) {
      char num[32];
      std::snprintf(num, sizeof(num), "%s%.17g", d ? ", " : "", rng.uniform());
      body += num;
    }
    body += "]}";
    w = "POST /v1/query HTTP/1.1\r\nHost: b\r\nConnection: keep-alive\r\n"
        "Content-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
  }

  struct BenchConn {
    util::TcpSocket sock;
    std::string buf;
    std::size_t next = 0;  ///< probe index of the next request to send
  };
  const std::size_t nthreads = std::min<std::size_t>(clients, 4);
  std::vector<std::vector<BenchConn>> per_thread(nthreads);
  for (std::size_t c = 0; c < clients; ++c) {
    BenchConn bc;
    bc.sock = util::tcp_connect(port);
    bc.sock.set_recv_timeout(5.0);
    bc.next = c % kProbes;
    per_thread[c % nthreads].push_back(std::move(bc));
  }

  std::atomic<bool> run{true};
  std::vector<std::uint64_t> served(nthreads, 0);
  std::vector<std::thread> threads;
  util::WallTimer timer;
  for (std::size_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t count = 0;
      auto& conns = per_thread[t];
      // Prime: fill every connection's pipeline in one coalesced write.
      for (auto& c : conns) {
        std::string out;
        for (std::size_t q = 0; q < pipeline; ++q)
          out += wire[(c.next++) % kProbes];
        if (!c.sock.write_all(out)) return;
      }
      char chunk[16384];
      while (run.load(std::memory_order_relaxed)) {
        for (auto& c : conns) {
          const long n = c.sock.read_some(chunk, sizeof(chunk));
          if (n <= 0) return;  // timeout/error: stop this thread's loop
          c.buf.append(chunk, static_cast<std::size_t>(n));
          const std::size_t done = consume_responses(c.buf);
          if (done == 0) continue;
          count += done;
          std::string out;
          for (std::size_t q = 0; q < done; ++q)
            out += wire[(c.next++) % kProbes];
          if (!c.sock.write_all(out)) return;
        }
      }
      served[t] = count;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  run.store(false);
  for (auto& t : threads) t.join();
  const double wall = timer.elapsed_s();
  per_thread.clear();  // close all connections before stopping the server
  server.stop();
  batcher.stop();

  ArmResult r;
  r.clients = clients;
  for (const auto count : served) r.queries += count;
  r.wall_s = wall;
  r.qps = static_cast<double>(r.queries) / wall;
  // HTTP arms report the server-side request latency (parse -> response
  // flushed to outbuf), the histogram the /metrics endpoint exposes.
  const auto snap = metrics.http_latency.snapshot();
  r.p50_us = snap.quantile(0.5) * 1e6;
  r.p99_us = snap.quantile(0.99) * 1e6;
  r.p999_us = snap.quantile(0.999) * 1e6;
  const auto batches = metrics.batches_total.load();
  r.mean_batch = batches ? static_cast<double>(
                               metrics.batched_queries_total.load()) /
                               static_cast<double>(batches)
                         : 0.0;
  r.full_flush_fraction =
      batches ? static_cast<double>(metrics.full_flushes_total.load()) /
                    static_cast<double>(batches)
              : 0.0;
  return r;
}

/// The 2048-connection sweep needs ~2 fds per client plus the server side
/// in one process: lift the soft RLIMIT_NOFILE to the hard cap.
void raise_fd_limit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  lim.rlim_cur = lim.rlim_max;
  (void)setrlimit(RLIMIT_NOFILE, &lim);
}

void maybe_write_json(const std::vector<ArmResult>& arms,
                      const std::string& scenario, std::size_t max_batch,
                      std::size_t num_threads, const std::string& io,
                      std::size_t pipeline) {
  const char* env = std::getenv("SGM_BENCH_JSON");
  if (!env || std::string(env) == "0") return;
  std::ofstream out("BENCH_serve.json");
  out << "{\n  \"bench\": \"serve\",\n  \"io\": \"" << io
      << "\",\n  \"pipeline\": " << pipeline
      << ",\n  \"scenario\": \"" << scenario
      << "\",\n  \"max_batch\": " << max_batch
      << ",\n  \"num_threads\": " << num_threads << ",\n  \"arms\": [\n";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& a = arms[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"clients\": %zu, \"queries\": %llu, "
                  "\"wall_s\": %.3f, \"queries_per_s\": %.0f, "
                  "\"p50_us\": %.2f, \"p99_us\": %.2f, \"p999_us\": %.2f, "
                  "\"mean_batch\": %.2f, \"full_flush_fraction\": %.3f}%s\n",
                  a.clients,
                  static_cast<unsigned long long>(a.queries), a.wall_s,
                  a.qps, a.p50_us, a.p99_us, a.p999_us, a.mean_batch,
                  a.full_flush_fraction,
                  i + 1 < arms.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  std::printf("(json written to BENCH_serve.json)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const double seconds = env_double("SGM_BENCH_SERVE_SECONDS", 2.0);
  const std::size_t max_batch = env_size_t("SGM_BENCH_SERVE_BATCH", 64);
  const std::size_t num_threads = env_size_t("SGM_BENCH_THREADS", 2);
  const std::string scenario = "poisson2d";

  // --io direct|reactor (or SGM_BENCH_SERVE_IO).
  std::string io = "direct";
  if (const char* v = std::getenv("SGM_BENCH_SERVE_IO")) io = v;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--io") == 0) io = argv[i + 1];
  }
  if (io != "direct" && io != "reactor") {
    std::fprintf(stderr, "unknown io '%s' (want direct|reactor)\n",
                 io.c_str());
    return 2;
  }
  const std::size_t pipeline = env_size_t("SGM_BENCH_SERVE_PIPELINE", 8);
  if (io != "direct") raise_fd_limit();

  const auto cfg = pinn::ScenarioRegistry::instance().make(
      scenario, pinn::ScenarioScale::kSmoke);
  util::Rng rng(cfg.net_seed);
  nn::Mlp net(cfg.net, rng);

  namespace fs = std::filesystem;
  const std::string root =
      (fs::temp_directory_path() / "sgm_bench_serve_registry").string();
  fs::remove_all(root);
  serve::ModelRegistry registry(root);
  registry.publish(scenario, net);
  registry.pin(scenario);

  std::printf(
      "=== serve throughput [%s io]: %s %zux%zu net, max_batch %zu, %zu "
      "forward threads, %.1fs per arm ===\n",
      io.c_str(), scenario.c_str(), cfg.net.width, cfg.net.depth, max_batch,
      num_threads, seconds);
  std::printf("%8s %12s %12s %10s %10s %10s %11s %10s\n", "clients",
              "queries", "queries/s", "p50_us", "p99_us", "p999_us",
              "mean_batch", "full_frac");

  std::vector<ArmResult> arms;
  for (const std::size_t clients : client_counts()) {
    const ArmResult r =
        io == "direct"
            ? run_arm(registry, scenario, cfg.net.input_dim, clients, seconds,
                      max_batch, num_threads)
            : run_http_arm(registry, scenario, cfg.net.input_dim, clients,
                           seconds, max_batch, num_threads, pipeline);
    std::printf("%8zu %12llu %12.0f %10.2f %10.2f %10.2f %11.2f %10.3f\n",
                r.clients, static_cast<unsigned long long>(r.queries), r.qps,
                r.p50_us, r.p99_us, r.p999_us, r.mean_batch,
                r.full_flush_fraction);
    arms.push_back(r);
  }
  maybe_write_json(arms, scenario, max_batch, num_threads, io, pipeline);
  fs::remove_all(root);
  return 0;
}
