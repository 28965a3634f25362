#pragma once
// Serving workload: the full HTTP path over loopback — reactor HttpServer in
// front of the InferenceBatcher, both at library defaults — driven by one
// closed-loop client thread with a fixed number of pipelined requests in
// flight on each keep-alive connection.

#include <cstdint>
#include <string>
#include <vector>

#include "nn/mlp.hpp"
#include "report.hpp"
#include "serve/metrics.hpp"
#include "tensor/matrix.hpp"
#include "trace.hpp"
#include "util/histogram.hpp"

namespace perfbench {

/// One query: its wire bytes and the exact response the server must send —
/// http::make_response(200, ...) around http::render_query_body of
/// Mlp::forward on the same input at the published version.
struct Probe {
  std::vector<double> x;
  std::string request;
  std::string expected;
};

/// `count` probes whose inputs are rows of `points` drawn with `seed`.
std::vector<Probe> make_probes(const sgm::nn::Mlp& net, const std::string& scenario,
                               std::uint64_t version,
                               const sgm::tensor::Matrix& points, std::size_t count,
                               std::uint64_t seed);

struct ClientStats {
  std::uint64_t sent = 0;
  std::uint64_t correct = 0;
  std::uint64_t wrong = 0;       ///< answered with other bytes than expected
  std::uint64_t unanswered = 0;  ///< still open when the drain deadline hit
  std::uint64_t correct_in_window = 0;
  double window_s = 0.0;     ///< measured window length
  double process_cpu_s = 0.0;  ///< whole process, over the window
  double client_cpu_s = 0.0;   ///< the client thread, over the window
  /// Send -> complete response of every request sent inside the window;
  /// a failed request is infinitely late and lands in the top bucket.
  sgm::util::HistogramSnapshot latency;
  std::string first_mismatch;  ///< head of the first wrong response

  /// ServeMetrics over the window (counter deltas).
  std::uint64_t batches = 0, batched_queries = 0, full_flushes = 0,
                deadline_flushes = 0, rejected = 0, errors = 0;
  double http_p50_s = 0.0;
};

/// Runs the closed loop on the calling thread against 127.0.0.1:`port`:
/// 4 keep-alive connections x 32 pipelined requests, a 1 s warm-up, then a
/// timed window of `window_s`, then up to 3 s for the last answers.
/// `metrics` (the server's) is sampled at the window edges; a tracer gets
/// one span per 16 requests sent on a connection in the window.
ClientStats run_client(std::uint16_t port, const std::vector<Probe>& probes,
                       double window_s,
                       const sgm::serve::ServeMetrics& metrics,
                       Tracer* tracer = nullptr);

Result run_serve(const RunOptions& opt);

}  // namespace perfbench
