#include "serve_bench.hpp"

#include <poll.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>

#include "pinn/scenario.hpp"
#include "serve/batcher.hpp"
#include "serve/connection.hpp"
#include "serve/http_server.hpp"
#include "serve/model_registry.hpp"
#include "util/socket.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace sgm;

namespace {

constexpr const char* kScenario = "annular_ring_param";
constexpr std::size_t kProbes = 4096;
// The client's shape: keep-alive connections, requests in flight on each,
// the untimed warm-up before the window, how long after the window the
// last answers may take, and one traced request span per this many.
constexpr std::size_t kConnections = 4;
constexpr std::size_t kPipeline = 32;
constexpr double kWarmupS = 1.0;
constexpr double kDrainS = 3.0;
constexpr std::uint64_t kSpanEvery = 16;
/// Rounds of the traced run's per-request stage replays.
constexpr int kReplayRounds = 300;
/// Set-ups timed per run (registry open -> first correct response); the
/// last one serves the measured window.
constexpr int kSetups = 31;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// Length of the complete HTTP response at the front of `buf` (head plus
/// Content-Length body), or 0 while it is incomplete.
std::size_t response_length(const std::string& buf, std::size_t from) {
  const std::size_t head_end = buf.find("\r\n\r\n", from);
  if (head_end == std::string::npos) return 0;
  std::size_t body = 0;
  const std::size_t cl = buf.find("Content-Length: ", from);
  if (cl != std::string::npos && cl < head_end)
    body = std::strtoul(buf.c_str() + cl + 16, nullptr, 10);
  const std::size_t total = head_end + 4 + body - from;
  return buf.size() - from >= total ? total : 0;
}

struct Outstanding {
  std::uint32_t probe = 0;
  std::uint64_t seq = 0;
  double sent_s = 0.0;
  bool in_window = false;
};

struct ClientConn {
  util::TcpSocket sock;
  std::uint64_t id = 0;
  std::string in;
  std::size_t in_pos = 0;
  std::string out;
  std::size_t out_pos = 0;
  std::uint64_t next_seq = 0;
  std::deque<Outstanding> pending;
};

struct MetricsSample {
  std::uint64_t batches, batched, full, deadline, rejected, errors;
  util::HistogramSnapshot http;
};

MetricsSample sample(const serve::ServeMetrics& m) {
  return {m.batches_total.load(),          m.batched_queries_total.load(),
          m.full_flushes_total.load(),     m.deadline_flushes_total.load(),
          m.rejected_total.load() + m.deadline_shed_total.load(),
          m.http_errors_total.load() + m.query_errors_total.load(),
          m.http_latency.snapshot()};
}

/// One query on a fresh blocking connection; true iff the response is the
/// probe's expected bytes.
bool query_once(std::uint16_t port, const Probe& probe) {
  util::TcpSocket sock = util::tcp_connect(port);
  sock.set_recv_timeout(5.0);
  if (!sock.write_all(probe.request)) return false;
  std::string buf;
  char chunk[4096];
  while (response_length(buf, 0) == 0) {
    const long n = sock.read_some(chunk, sizeof(chunk));
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  return buf == probe.expected;
}

}  // namespace

std::vector<Probe> make_probes(const nn::Mlp& net, const std::string& scenario,
                               std::uint64_t version,
                               const tensor::Matrix& points, std::size_t count,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Probe> probes(count);
  const auto n = static_cast<std::uint64_t>(points.rows());
  for (Probe& p : probes) {
    const std::size_t row = static_cast<std::size_t>(rng.next_u64() % n);
    std::string body = "{\"scenario\": \"" + scenario + "\", \"x\": [";
    tensor::Matrix x(1, points.cols());
    for (std::size_t c = 0; c < points.cols(); ++c) {
      x(0, c) = points(row, c);
      p.x.push_back(points(row, c));
      char num[40];
      std::snprintf(num, sizeof(num), "%s%.17g", c ? ", " : "", points(row, c));
      body += num;
    }
    body += "]}";
    p.request = "POST /v1/query HTTP/1.1\r\nHost: bench\r\n"
                "Connection: keep-alive\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body;
    const tensor::Matrix y = net.forward(x);
    std::vector<double> yv(y.data(), y.data() + y.size());
    int status = 200;
    const std::string out =
        serve::http::render_query_body(scenario, version, yv, status);
    p.expected = serve::http::make_response(status, "application/json", out,
                                            /*keep_alive=*/true);
  }
  return probes;
}

ClientStats run_client(std::uint16_t port, const std::vector<Probe>& probes,
                       double window_s, const serve::ServeMetrics& metrics,
                       Tracer* tracer) {
  ClientStats st;
  util::LatencyHistogram latency;
  const double late = std::numeric_limits<double>::infinity();
  std::vector<ClientConn> conns(kConnections);
  for (std::size_t i = 0; i < conns.size(); ++i) {
    conns[i].sock = util::tcp_connect(port);
    conns[i].sock.set_nodelay(true);
    conns[i].sock.set_nonblocking(true);
    conns[i].id = i;
  }
  std::vector<pollfd> fds(conns.size());

  const Clock::time_point origin = Clock::now();
  const double trace_offset = tracer ? tracer->now() : 0.0;
  const double t0 = kWarmupS;
  const double t1 = t0 + window_s;
  bool in_window = false, window_done = false;
  double win_start = 0.0, cpu_start = 0.0, client_cpu_start = 0.0;
  MetricsSample m_start{};
  std::uint32_t next_probe = 0;
  std::uint64_t open = 0;  // requests sent and not yet answered

  for (;;) {
    const double now = seconds_since(origin);
    if (!in_window && !window_done && now >= t0) {
      in_window = true;
      win_start = now;
      cpu_start = process_cpu_s();
      client_cpu_start = thread_cpu_s();
      m_start = sample(metrics);
    }
    if (in_window && now >= t1) {
      in_window = false;
      window_done = true;
      st.window_s = now - win_start;
      st.process_cpu_s = process_cpu_s() - cpu_start;
      st.client_cpu_s = thread_cpu_s() - client_cpu_start;
      const MetricsSample m_end = sample(metrics);
      st.batches = m_end.batches - m_start.batches;
      st.batched_queries = m_end.batched - m_start.batched;
      st.full_flushes = m_end.full - m_start.full;
      st.deadline_flushes = m_end.deadline - m_start.deadline;
      st.rejected = m_end.rejected - m_start.rejected;
      st.errors = m_end.errors - m_start.errors;
      util::HistogramSnapshot d = m_end.http;
      for (std::size_t i = 0; i < d.counts.size(); ++i)
        d.counts[i] -= m_start.http.counts[i];
      d.total -= m_start.http.total;
      d.sum_ns -= m_start.http.sum_ns;
      st.http_p50_s = d.quantile(0.5);
    }
    if (window_done && (open == 0 || now >= t1 + kDrainS)) break;

    // Top every connection up to its pipeline depth (until the window ends).
    for (ClientConn& c : conns) {
      while (!window_done && c.pending.size() < kPipeline) {
        Outstanding o;
        o.probe = next_probe;
        next_probe = (next_probe + 1) % static_cast<std::uint32_t>(probes.size());
        o.seq = c.next_seq++;
        o.sent_s = now;
        o.in_window = in_window;
        c.out += probes[o.probe].request;
        c.pending.push_back(o);
        ++st.sent;
        ++open;
      }
      while (c.out_pos < c.out.size()) {
        const long w = c.sock.write_some(c.out.data() + c.out_pos,
                                         c.out.size() - c.out_pos);
        if (w <= 0) break;  // would block (or error: the drain fails it)
        c.out_pos += static_cast<std::size_t>(w);
      }
      if (c.out_pos == c.out.size()) {
        c.out.clear();
        c.out_pos = 0;
      }
    }

    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].sock.fd();
      fds[i].events = static_cast<short>(
          POLLIN | (conns[i].out_pos < conns[i].out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    if (::poll(fds.data(), fds.size(), 5) <= 0) continue;

    char chunk[65536];
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      ClientConn& c = conns[i];
      const long n = c.sock.read_nb(chunk, sizeof(chunk));
      if (n <= 0) continue;  // would block / closed: unanswered at the drain
      c.in.append(chunk, static_cast<std::size_t>(n));
      const double done = seconds_since(origin);
      for (;;) {
        const std::size_t len = response_length(c.in, c.in_pos);
        if (len == 0 || c.pending.empty()) break;
        const Outstanding o = c.pending.front();
        c.pending.pop_front();
        --open;
        const std::string& want = probes[o.probe].expected;
        const bool ok = len == want.size() &&
                        c.in.compare(c.in_pos, len, want) == 0;
        if (ok) {
          ++st.correct;
          if (in_window) ++st.correct_in_window;
        } else {
          ++st.wrong;
          if (st.first_mismatch.empty())
            st.first_mismatch = c.in.substr(c.in_pos, std::min<std::size_t>(len, 200));
        }
        if (o.in_window) {
          latency.record(ok ? done - o.sent_s : late);
          if (tracer && o.seq % kSpanEvery == 0)
            tracer->add("client.request", trace_offset + o.sent_s,
                        trace_offset + done, (c.id << 32) | o.seq);
        }
        c.in_pos += len;
      }
      if (c.in_pos == c.in.size()) {
        c.in.clear();
        c.in_pos = 0;
      } else if (c.in_pos > (1u << 20)) {
        c.in.erase(0, c.in_pos);
        c.in_pos = 0;
      }
    }
  }
  for (const ClientConn& c : conns)
    for (const Outstanding& o : c.pending) {
      ++st.unanswered;
      if (o.in_window) latency.record(late);
    }
  st.latency = latency.snapshot();
  return st;
}

namespace {

/// A running serving stack: what set-up builds and the window measures.
struct Stack {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::ServeMetrics> metrics;
  std::unique_ptr<serve::InferenceBatcher> batcher;
  std::unique_ptr<serve::HttpServer> server;

  void stop() {
    if (server) server->stop();
    if (batcher) batcher->stop();
    server.reset();
    batcher.reset();
  }
  ~Stack() { stop(); }
};

/// Registry open + checkpoint load/verify + batcher/server start, up to the
/// first correct response.
std::unique_ptr<Stack> start_stack(const std::string& root,
                                   const Probe& first, double& seconds,
                                   bool& ok) {
  util::WallTimer timer;
  auto s = std::make_unique<Stack>();
  s->registry = std::make_unique<serve::ModelRegistry>(root);
  s->registry->pin(kScenario);
  s->metrics = std::make_unique<serve::ServeMetrics>();
  s->batcher = std::make_unique<serve::InferenceBatcher>(
      *s->registry, serve::BatcherOptions{}, s->metrics.get());
  s->server = std::make_unique<serve::HttpServer>(
      *s->registry, *s->batcher, *s->metrics, serve::HttpServerOptions{});
  ok = query_once(s->server->port(), first);
  seconds = timer.elapsed_s();
  return s;
}

/// CPU seconds per call of `fn` over one timed batch of `inner` calls. The
/// replays run on this thread only (the batcher's forward is
/// single-threaded by default), and CPU time is what they are reconciled
/// with.
template <class Fn>
double per_call_s(int inner, Tracer* tracer, const char* span, Fn&& fn) {
  ScopedSpan s(tracer, span);
  const double cpu0 = thread_cpu_s();
  for (int i = 0; i < inner; ++i) fn(i);
  return (thread_cpu_s() - cpu0) / inner;
}

/// Serving CPU per correct response in the window: the process's CPU
/// minus the client thread's.
double serving_cpu_us(const ClientStats& st) {
  return 1e6 * (st.process_cpu_s - st.client_cpu_s) /
         static_cast<double>(std::max<std::uint64_t>(st.correct_in_window, 1));
}

double window_qps(const ClientStats& st) {
  return static_cast<double>(st.correct_in_window) / st.window_s;
}

double mean_batch(const ClientStats& st) {
  return st.batches ? static_cast<double>(st.batched_queries) /
                          static_cast<double>(st.batches)
                    : 1.0;
}

void report_window(const ClientStats& st, Result& r) {
  r.attempted += st.sent;
  r.failed += st.wrong + st.unanswered;
  if (st.wrong)
    r.notes.push_back("wrong response bytes, first: " + st.first_mismatch);
  if (st.unanswered)
    r.notes.push_back(std::to_string(st.unanswered) +
                      " queries unanswered at the drain deadline");
}

}  // namespace

Result run_serve(const RunOptions& opt) {
  Result result;
  const std::string root = opt.out_dir + "/registry-" +
                           std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{root};

  // Preparation (untimed): the annular kFull network from its registered
  // net_seed, published once; the probes from the workload seed.
  const pinn::ScenarioConfig cfg = pinn::ScenarioRegistry::instance().make(
      kScenario, pinn::ScenarioScale::kFull);
  util::Rng net_rng(cfg.net_seed);
  const nn::Mlp net(cfg.net, net_rng);
  std::uint64_t version = 0;
  {
    serve::ModelRegistry publisher(root);
    version = publisher.publish(kScenario, net);
  }
  const std::vector<Probe> probes =
      make_probes(net, kScenario, version, cfg.problem->interior_points(),
                  kProbes, mix_seed(opt.seed, 7));

  const serve::BatcherOptions bopt;
  const serve::HttpServerOptions hopt;
  result.fact("scenario", kScenario);
  result.fact("connections", static_cast<double>(kConnections));
  result.fact("pipeline", static_cast<double>(kPipeline));
  result.fact("batcher_workers", static_cast<double>(bopt.num_workers));
  result.fact("batcher_forward_threads",
              static_cast<double>(util::resolve_threads(bopt.num_threads)));
  result.fact("batcher_max_batch", static_cast<double>(bopt.max_batch));
  result.fact("reactor_threads", static_cast<double>(hopt.num_reactors));
  result.fact("window_s", opt.seconds);
  result.fact("warmup_s", kWarmupS);

  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    if (stack) stack->stop();
    stack.reset();
    double seconds = 0.0;
    bool ok = false;
    stack = start_stack(root, probes[static_cast<std::size_t>(i)], seconds, ok);
    ++result.attempted;
    if (!ok) {
      ++result.failed;
      result.notes.push_back("set-up query answered wrongly");
    }
    setups.push_back(seconds);
  }
  const std::uint16_t port = stack->server->port();

  const ClientStats st = run_client(port, probes, opt.seconds, *stack->metrics);
  report_window(st, result);
  const double qps = window_qps(st);
  const double cpu_us = serving_cpu_us(st);

  if (!opt.trace) {
    // One operation is one query.
    result.metric("cpu_ms_per_op", 1e-3 * cpu_us, "ms");
    result.metric("setup_s", median(setups), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // Wall-clock figures, recorded but not gated (see main.cpp).
    result.fact("wall_p50_ms", 1e3 * st.latency.quantile(0.5));
    result.fact("wall_p99_ms", 1e3 * st.latency.quantile(0.99));
    result.fact("wall_qps", qps);
    result.fact("latency_samples", static_cast<double>(st.latency.total));
    result.fact("mean_batch", mean_batch(st));
    result.fact("client_util", st.client_cpu_s / st.window_s);
    return result;
  }

  // Traced run: a second window with client request spans; the per-layer
  // numbers come from it, the overhead from comparing it with the first.
  Tracer tracer;
  const ClientStats tst =
      run_client(port, probes, opt.seconds, *stack->metrics, &tracer);
  report_window(tst, result);
  const double tqps = window_qps(tst);
  const double tcpu_us = serving_cpu_us(tst);
  const double batch_mean = mean_batch(tst);

  // Replays of the per-request stages on the workload's own bytes,
  // interleaved in rounds that span about a second and rotate over the
  // allowed CPUs, as the serving threads do: run on one CPU, the replays'
  // cost moved by 1.4x between identical runs while the served CPU per
  // query did not. The medians over the rounds are the stage costs.
  Tracer* tr = &tracer;
  const std::size_t nprobe = 256;
  const auto parse = [&](int i) {
    const std::string& wire = probes[static_cast<std::size_t>(i)].request;
    serve::http::HttpRequest req;
    std::size_t body_offset = 0;
    if (serve::http::parse_head(wire, req, body_offset, hopt.max_body_bytes) !=
        serve::http::ParseStatus::kOk)
      throw std::runtime_error("replay: request head did not parse");
    req.body = wire.substr(body_offset, req.content_length);
    std::string scenario;
    std::vector<double> x;
    if (!serve::http::json_string_field(req.body, "scenario", scenario) ||
        !serve::http::json_number_array(req.body, "x", x))
      throw std::runtime_error("replay: request body did not parse");
  };
  std::vector<std::vector<double>> ys;
  for (std::size_t i = 0; i < nprobe; ++i) {
    tensor::Matrix x(1, probes[i].x.size());
    for (std::size_t c = 0; c < probes[i].x.size(); ++c) x(0, c) = probes[i].x[c];
    const tensor::Matrix y = net.forward(x);
    ys.emplace_back(y.data(), y.data() + y.size());
  }
  const auto serialize = [&](int i) {
    int status = 200;
    const std::string body = serve::http::render_query_body(
        kScenario, version, ys[static_cast<std::size_t>(i)], status);
    if (serve::http::make_response(status, "application/json", body, true) !=
        probes[static_cast<std::size_t>(i)].expected)
      throw std::runtime_error("replay: serialized response differs");
  };
  const auto acquire = [&](int) {
    if (!stack->registry->acquire(kScenario))
      throw std::runtime_error("replay: acquire returned no model");
  };
  const auto rows = static_cast<std::size_t>(std::max(1.0, std::round(batch_mean)));
  tensor::Matrix xb(rows, probes[0].x.size());
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < xb.cols(); ++c) xb(r, c) = probes[r].x[c];
  tensor::Matrix yb;
  nn::Mlp::ForwardWorkspace ws;
  const auto forward = [&](int) {
    net.forward_batched(xb, yb, ws, bopt.num_threads);
  };
  const int n = static_cast<int>(nprobe);
  std::vector<double> parse_t, serialize_t, acquire_t, forward_t;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
    throw std::runtime_error("replay: sched_getaffinity failed");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  for (int round = 0; round < kReplayRounds; ++round) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(round) % cpus.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    parse_t.push_back(per_call_s(n, tr, "replay.parse", parse));
    serialize_t.push_back(per_call_s(n, tr, "replay.serialize", serialize));
    acquire_t.push_back(per_call_s(n, tr, "replay.acquire", acquire));
    forward_t.push_back(per_call_s(8, tr, "replay.forward", forward));
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  const double parse_s = median(parse_t);
  const double serialize_s = median(serialize_t);
  const double acquire_s = median(acquire_t);
  const double forward_s = median(forward_t);
  const double forward_row_us = 1e6 * forward_s / static_cast<double>(rows);
  const double replayed_us = 1e6 * (parse_s + serialize_s) +
                             1e6 * acquire_s / batch_mean + forward_row_us;

  result.metric("serve.http_p50_ms", 1e3 * tst.http_p50_s, "ms");
  result.metric("serve.batch_mean", batch_mean, "count");
  result.metric("serve.full_flush_frac",
                tst.batches ? static_cast<double>(tst.full_flushes) /
                                  static_cast<double>(tst.batches)
                            : 0.0,
                "ratio");
  result.metric("serve.deadline_flush_frac",
                tst.batches ? static_cast<double>(tst.deadline_flushes) /
                                  static_cast<double>(tst.batches)
                            : 0.0,
                "ratio");
  result.metric("serve.rejected", static_cast<double>(tst.rejected), "count");
  result.metric("serve.errors", static_cast<double>(tst.errors), "count");
  result.metric("serve.parse_us", 1e6 * parse_s, "us");
  result.metric("serve.serialize_us", 1e6 * serialize_s, "us");
  result.metric("serve.acquire_us", 1e6 * acquire_s, "us");
  result.metric("nn.forward_us_per_row", forward_row_us, "us");
  result.metric("serve.cpu_us_per_query", tcpu_us, "us");
  result.metric("serve.reactor_residual_us", tcpu_us - replayed_us, "us");
  const double explained = replayed_us / tcpu_us;
  result.metric("serve.explained_frac", explained, "ratio");
  // The replayed stages run once per query (acquire once per batch) on the
  // serving threads; what they leave of the measured CPU per query is the
  // reactor, sockets and hand-offs, which are not replayed.
  const double unexplained = std::abs(1.0 - explained);
  result.metric("trace.reconcile_frac", unexplained, "ratio");
  if (!(unexplained <= kServeReconcileTolerance))
    result.fail_check("replayed per-query stages explain " +
                      json_number(explained) +
                      " of the measured CPU per query");
  result.metric("serve.p50_ms", 1e3 * tst.latency.quantile(0.5), "ms");
  result.metric("serve.p99_ms", 1e3 * tst.latency.quantile(0.99), "ms");
  result.metric("serve.p999_ms", 1e3 * tst.latency.quantile(0.999), "ms");
  result.metric("serve.latency_samples",
                static_cast<double>(tst.latency.total), "count");
  result.metric("serve.client_util", tst.client_cpu_s / tst.window_s, "ratio");
  result.metric("serve.qps", tqps, "1/s");
  result.metric("trace.overhead_frac", qps / tqps - 1.0, "ratio");
  result.fact("untraced_qps", qps);
  result.fact("untraced_cpu_us_per_query", cpu_us);
  result.fact("setup_s_median", median(setups));

  const std::string path = opt.out_dir + "/trace-serve-http-seed" +
                           std::to_string(opt.seed) + ".json";
  tracer.write_chrome_json(path);
  result.fact("trace_path", path);
  result.fact("trace_spans", static_cast<double>(tracer.spans().size()));
  return result;
}

}  // namespace perfbench
