#pragma once
// Batched inference engine: coalesces concurrent queries into one blocked-
// GEMM forward.
//
// Request path: a client claims a pooled response slot (fixed-capacity
// table), writes its request into the slot and pushes the slot index onto a
// bounded lock-free MPSC ring (util/mpsc_ring.*). The worker delivers the
// response through the slot's completion callback (query_async); the
// blocking query() is that same submit plus a wait on a completion that
// lives on the caller's stack. No shared mutex, no allocation and no
// promise/future on the request path — the PR 6 profile showed the queue
// mutex and the per-query promise dominating well before the GEMM did.
// When the slot pool is exhausted the query is rejected immediately with
// QueueFullError (the HTTP layer maps it to 503) and counted in
// rejected_total — bounded queues shed load instead of collapsing.
//
// A worker drains pending requests, groups them by scenario (up to
// max_batch of the oldest entry's scenario), stacks their inputs into one
// matrix and runs a single Mlp::forward_batched over it. Partial batches
// wait at most max_delay_s past the oldest request's arrival (deadline
// flush), so tail latency is bounded even at low load.
//
// Determinism / attribution contract (pinned by tests/test_serve.cpp):
//  * each response row is bitwise identical to what a lone
//    net.forward(single_row) would return — batching and the worker's
//    thread count never change the numbers (GEMM row independence);
//  * a batch acquires its model exactly once; every response carries the
//    version (and checksum) of that one acquire, so under concurrent
//    hot-swaps each response is attributable to exactly one published
//    version — never a torn mix.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nn/mlp.hpp"
#include "serve/metrics.hpp"
#include "serve/model_registry.hpp"
#include "util/mpsc_ring.hpp"
#include "util/timer.hpp"

namespace sgm::serve {

/// Thrown by query() when the bounded request queue is full (backpressure).
/// The HTTP front end maps it to 503 Service Unavailable.
class QueueFullError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by query() when the estimated queue wait already exceeds the
/// request's deadline budget — shedding up front beats queueing work whose
/// answer will arrive too late to matter. The HTTP front end maps it to
/// 503 + a Retry-After hint of retry_after_s().
class DeadlineExceededError : public std::runtime_error {
 public:
  DeadlineExceededError(const std::string& what, double retry_after_s)
      : std::runtime_error(what), retry_after_s_(retry_after_s) {}
  double retry_after_s() const { return retry_after_s_; }

 private:
  double retry_after_s_;
};

/// Serving health, coarsest first: kOk (normal), kDegraded (load was shed
/// since the last probe, or occupancy crossed half the queue bound —
/// callers should back off), kDraining (stop() in progress; no new work).
enum class HealthState : std::uint8_t { kOk, kDegraded, kDraining };

constexpr const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::kOk: return "ok";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kDraining: return "draining";
  }
  return "unknown";
}

/// Error classification carried by a completion (query_async). The worker
/// cannot throw into the submitter's thread, so failures travel as a code +
/// message; query() rethrows them as the exceptions noted below, and the
/// HTTP reactor maps them to the matching statuses.
enum class QueryError : std::uint8_t {
  kNone,             ///< success
  kNotFound,         ///< unpublished scenario (std::out_of_range ~ 404)
  kInvalidArgument,  ///< wrong input width etc. (std::invalid_argument ~ 400)
  kRuntime,          ///< forward failure / stopped (std::runtime_error ~ 503)
};

struct BatcherOptions {
  std::size_t max_batch = 64;    ///< coalesce at most this many queries
  double max_delay_s = 200e-6;   ///< deadline flush for partial batches
  std::size_t num_threads = 1;   ///< row-parallel forward threads (0 = auto)
  std::size_t num_workers = 1;   ///< batch-assembly worker threads
  /// Bound on in-flight queries: ring length and response-slot count.
  /// Rounded up to a power of two. Queries beyond it are rejected with
  /// QueueFullError.
  std::size_t queue_capacity = 1024;
  /// Deadline budget applied to queries that don't carry their own
  /// (seconds). 0 disables deadline shedding — the PR 8 behavior.
  double default_deadline_s = 0.0;
  /// stop() serves already-accepted queries for at most this long before
  /// failing the remainder (graceful drain bound).
  double drain_deadline_s = 2.0;
};

class InferenceBatcher {
 public:
  /// Spawns the workers. `metrics` may be null (bench/tests often pass one).
  InferenceBatcher(ModelRegistry& registry, BatcherOptions opt,
                   ServeMetrics* metrics = nullptr);
  ~InferenceBatcher();

  InferenceBatcher(const InferenceBatcher&) = delete;
  InferenceBatcher& operator=(const InferenceBatcher&) = delete;

  struct Response {
    std::vector<double> y;        ///< output_dim values
    std::uint64_t version = 0;    ///< the one model version that answered
    std::uint64_t checksum = 0;   ///< its payload checksum
  };

  /// Blocking: query_async plus a wait for its completion; returns the row.
  /// Throws std::out_of_range for unpublished scenarios,
  /// std::invalid_argument for wrong input width, QueueFullError when the
  /// bounded queue is full, DeadlineExceededError when `deadline_s` (or
  /// opt_.default_deadline_s when deadline_s < 0) is smaller than the
  /// estimated queue wait, std::runtime_error after stop(). Worker-side
  /// failures travel as a QueryError + message and are rethrown here as
  /// fresh exceptions — exception objects never cross threads (their
  /// libstdc++-internal refcounting is opaque to TSan, and a failed batch
  /// would otherwise share one object across all its callers).
  Response query(const std::string& scenario, std::vector<double> x,
                 double deadline_s = -1.0);

  /// Async completion signature (see query_async). Invoked exactly once,
  /// on a batcher worker thread (or on the thread driving stop() for
  /// requests failed by the final drain). `tag1`/`tag2` echo the submit
  /// call's values; on failure `error != kNone` and `message` explains.
  /// The response slot is recycled before the callback runs, so a slow
  /// callback never holds queue capacity — but it does hold the worker, so
  /// keep it O(queue-append) cheap.
  using Completion = void (*)(void* ctx, std::uint64_t tag1,
                              std::uint64_t tag2, Response&& resp,
                              QueryError error, const std::string& message);

  /// Nonblocking submit, the one way into the queue (the epoll reactor
  /// calls it directly): returns immediately and the coalesced result is
  /// delivered through `done` on a worker thread. Admission errors are
  /// synchronous — throws QueueFullError, DeadlineExceededError and "query
  /// after stop()" std::runtime_error, and `done` is NOT invoked for those.
  void query_async(const std::string& scenario, std::vector<double> x,
                   double deadline_s, Completion done, void* ctx,
                   std::uint64_t tag1, std::uint64_t tag2);

  /// Graceful drain: refuses new queries immediately, serves what was
  /// already accepted for up to opt_.drain_deadline_s, then hard-stops
  /// (stragglers fail with std::runtime_error) and joins the workers.
  /// Idempotent; also called by the destructor.
  void stop();

  /// Current health (see HealthState). Reading it consumes the "load was
  /// shed since the last probe" degraded latch, so a single poller (the
  /// /healthz endpoint) sees degraded for exactly one probe per incident
  /// burst rather than forever.
  HealthState health();

  /// Estimated time a query enqueued now waits before its batch completes
  /// (in-flight depth × smoothed batch service time). Monitoring + the
  /// deadline-shed decision; never a correctness signal.
  double estimated_wait_s() const;

  /// Requests accepted but not yet answered (monitoring estimate), derived
  /// from the freelist occupancy — the request hot path carries no extra
  /// shared-line RMW for it.
  std::uint64_t in_flight() const;

 private:
  struct Slot;

  /// Sheds a query whose deadline budget the estimated wait exceeds:
  /// counts it and throws DeadlineExceededError. `budget <= 0` never sheds.
  void maybe_shed(double budget) const;
  void note_shed() const;  ///< feeds metrics + the degraded-health latch

  void worker_loop();
  /// Serves `batch` (slot indices, all one scenario) and completes each slot.
  void serve_slots(const std::vector<std::uint32_t>& batch);
  void fail_slot(Slot& slot, QueryError err, const std::string& message);
  /// Recycles the slot, then delivers its outcome through its callback.
  void complete_slot(Slot& slot);
  /// Fails every entry still in the ring; used by stopping workers and by
  /// stop() itself after the workers joined.
  void drain_ring_failing();

  void count_flush(std::size_t batch_size);
  void update_service_ewma(double batch_s);

  ModelRegistry& registry_;
  BatcherOptions opt_;
  ServeMetrics* metrics_;

  // `slots_` is immutable after construction; a slot is owned by whoever
  // holds its index (see Slot in batcher.cpp).
  std::unique_ptr<util::MpscRing<std::uint32_t>> ring_;      ///< requests
  std::unique_ptr<util::MpscRing<std::uint32_t>> freelist_;  ///< free slots
  std::unique_ptr<Slot[]> slots_;
  util::RingGate gate_;
  std::atomic<bool> stop_flag_{false};
  std::atomic<std::uint32_t> pending_pushes_{0};  ///< stop/push Dekker pair

  // Health / degradation state.
  std::atomic<bool> draining_{false};  ///< stop() entered its drain phase
  /// EWMA of batch service time in ns (racy cross-worker update; feeds
  /// estimated_wait_s only).
  std::atomic<std::uint64_t> ewma_batch_ns_{0};
  /// Queries shed (queue-full or deadline) since the last health() probe.
  mutable std::atomic<std::uint64_t> shed_since_health_{0};

  std::vector<std::thread> workers_;
};

}  // namespace sgm::serve
