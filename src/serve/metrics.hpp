#pragma once
// Serving observability: request/batch counters + latency histograms, with
// a Prometheus-style text rendering for the /metrics endpoint. The same
// object is shared by the HTTP front end, the batcher and bench_serve, so
// the numbers on the endpoint and in BENCH_serve.json come from one source.
//
// Everything here is wait-free on the hot path: counters are relaxed
// atomics and the histograms are util::LatencyHistogram (lock-free HDR
// buckets); render() works off snapshots, so scraping /metrics never stalls
// a request.

#include <atomic>
#include <cstdint>
#include <string>

#include "util/histogram.hpp"

namespace sgm::serve {

struct ServeMetrics {
  // Front-end (HTTP) counters.
  std::atomic<std::uint64_t> http_requests_total{0};
  std::atomic<std::uint64_t> http_errors_total{0};  ///< 4xx/5xx responses

  // Batcher counters.
  std::atomic<std::uint64_t> queries_total{0};         ///< answered queries
  std::atomic<std::uint64_t> query_errors_total{0};
  /// Backpressure: queries shed immediately because the bounded request
  /// ring / response-slot pool was full (HTTP surfaces these as 503).
  std::atomic<std::uint64_t> rejected_total{0};
  /// Deadline shedding: queries refused up front because the estimated
  /// queue wait already exceeded their deadline budget (HTTP surfaces
  /// these as 503 + Retry-After).
  std::atomic<std::uint64_t> deadline_shed_total{0};
  std::atomic<std::uint64_t> batches_total{0};         ///< coalesced forwards
  std::atomic<std::uint64_t> batched_queries_total{0}; ///< sum of batch sizes
  std::atomic<std::uint64_t> full_flushes_total{0};    ///< flushed at B
  std::atomic<std::uint64_t> deadline_flushes_total{0};///< flushed by timer

  /// Currently open HTTP connections (gauge).
  std::atomic<std::uint64_t> open_connections{0};

  /// End-to-end HTTP request handling time.
  util::LatencyHistogram http_latency;
  /// Batcher enqueue -> response latency (what a caller of query() sees).
  util::LatencyHistogram query_latency;

  /// Prometheus text exposition: counters plus {0.5, 0.99, 0.999} quantile
  /// summaries, count and sum for each histogram. Registry-owned stats are
  /// passed in so the one exposition renders in one place (the HTTP layer
  /// used to splice sgm_registry_quarantined_total in by hand).
  std::string render(std::uint64_t registry_quarantined = 0) const;
};

}  // namespace sgm::serve
