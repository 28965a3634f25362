#include "serve/batcher.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/check.hpp"
#include "util/mutex.hpp"

namespace sgm::serve {

using Clock = std::chrono::steady_clock;

namespace {

// Exception objects must not cross threads. Transporting them through a
// promise means the worker can drop the last reference to an exception
// whose what() buffer a client just read; the refcounting that makes this
// safe lives inside libstdc++ where TSan cannot see it, and one exception
// object would be shared by every member of a failed batch besides. The
// worker records a QueryError + message instead and query() throws a fresh
// exception on the caller's own thread.
[[noreturn]] void rethrow(QueryError error, const std::string& message) {
  switch (error) {
    case QueryError::kNotFound:
      throw std::out_of_range(message);
    case QueryError::kInvalidArgument:
      throw std::invalid_argument(message);
    default:
      throw std::runtime_error(message);
  }
}

// Spinning only helps when another core can complete the awaited work
// concurrently; on a single-CPU host every spin cycle starves the thread
// being waited on, so all spin budgets collapse to zero there and waiters
// yield or park instead.
const bool kMultiCore = std::thread::hardware_concurrency() > 1;

// Worker-side spin budget before parking on the gate.
const int kWorkerSpins = kMultiCore ? 256 : 0;
// Yields the batch-collect loop spends giving producers the CPU before it
// pays for a full gate park/unpark cycle per arrival.
constexpr int kCollectYields = 64;

// Bounded spin escalating to sched yield — for the retry loops that can
// only fail transiently (a peer claimed a ring slot but has not recycled
// its sequence yet). The yield guarantees progress on one core, where the
// peer cannot run while we spin.
inline void backoff(int& spins) {
  if (kMultiCore && spins < 256) {
    util::cpu_relax();
    ++spins;
  } else {
    std::this_thread::yield();
  }
}

}  // namespace

// Pooled response slot. Ownership follows the index:
//   client: pops the index off the freelist (exclusive owner), writes the
//           request fields and pushes the index onto the request ring — the
//           ring's release/acquire pair publishes the request to the worker;
//   worker (or stop(), failing leftovers): writes the response fields,
//           moves them out, returns the index to the freelist (whose
//           release/acquire pair publishes the reset slot to its next owner)
//           and only then runs the callback.
struct alignas(64) InferenceBatcher::Slot {
  // Request (client writes, worker reads).
  std::string scenario;
  std::vector<double> x;
  util::WallTimer since_enqueue;
  Clock::time_point deadline;
  InferenceBatcher::Completion done = nullptr;
  void* done_ctx = nullptr;
  std::uint64_t done_tag1 = 0;
  std::uint64_t done_tag2 = 0;
  // Response (worker writes, complete_slot delivers).
  Response resp;
  QueryError err = QueryError::kNone;
  std::string message;
};

InferenceBatcher::InferenceBatcher(ModelRegistry& registry, BatcherOptions opt,
                                   ServeMetrics* metrics)
    : registry_(registry), opt_(opt), metrics_(metrics) {
  SGM_CHECK_ARG(opt_.max_batch >= 1, "InferenceBatcher: max_batch must be >= 1");
  SGM_CHECK_ARG(opt_.num_workers >= 1,
                "InferenceBatcher: num_workers must be >= 1");
  SGM_CHECK_ARG(opt_.queue_capacity >= 2,
                "InferenceBatcher: queue_capacity must be >= 2");
  ring_ = std::make_unique<util::MpscRing<std::uint32_t>>(opt_.queue_capacity);
  freelist_ = std::make_unique<util::MpscRing<std::uint32_t>>(ring_->capacity());
  slots_ = std::make_unique<Slot[]>(ring_->capacity());
  for (std::uint32_t i = 0; i < ring_->capacity(); ++i) {
    const bool ok = freelist_->try_push(i);
    SGM_CHECK(ok, "freelist seeding overflowed at slot ", i);
  }
  workers_.reserve(opt_.num_workers);
  for (std::size_t i = 0; i < opt_.num_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

InferenceBatcher::~InferenceBatcher() { stop(); }

InferenceBatcher::Response InferenceBatcher::query(const std::string& scenario,
                                                   std::vector<double> x,
                                                   double deadline_s) {
  // The completion lives on this frame. The callback notifies while still
  // holding `mu`, so this frame cannot see `done`, return and destroy the
  // waiter until the callback has let go of it.
  struct Waiter {
    util::Mutex mu;
    util::CondVar cv;
    bool done SGM_GUARDED_BY(mu) = false;
    Response resp SGM_GUARDED_BY(mu);
    QueryError error SGM_GUARDED_BY(mu) = QueryError::kNone;
    std::string message SGM_GUARDED_BY(mu);
  } w;
  query_async(
      scenario, std::move(x), deadline_s,
      [](void* ctx, std::uint64_t, std::uint64_t, Response&& resp,
         QueryError error, const std::string& message) {
        auto* waiter = static_cast<Waiter*>(ctx);
        util::MutexLock lock(waiter->mu);
        waiter->resp = std::move(resp);
        waiter->error = error;
        waiter->message = message;
        waiter->done = true;
        waiter->cv.notify_one();
      },
      &w, 0, 0);
  util::MutexLock lock(w.mu);
  while (!w.done) w.cv.wait(w.mu);
  if (w.error != QueryError::kNone) rethrow(w.error, w.message);
  return std::move(w.resp);
}

std::uint64_t InferenceBatcher::in_flight() const {
  // Derived, not counted: a slot absent from the freelist is owned by a
  // client or the worker. Two relaxed loads; the lock-free request path
  // pays nothing for this monitoring signal.
  const std::size_t free_slots = freelist_->approx_size();
  const std::size_t cap = ring_->capacity();
  return free_slots >= cap ? 0 : cap - free_slots;
}

double InferenceBatcher::estimated_wait_s() const {
  // A query enqueued now waits for the batches ahead of it; each batch
  // costs at least the deadline-flush delay (a partial batch waits that
  // long for stragglers) and at most the smoothed observed service time.
  const double batch_s = std::max(
      static_cast<double>(ewma_batch_ns_.load(std::memory_order_relaxed)) *
          1e-9,
      opt_.max_delay_s);
  const std::uint64_t batches_ahead = in_flight() / opt_.max_batch + 1;
  return static_cast<double>(batches_ahead) * batch_s;
}

void InferenceBatcher::maybe_shed(double budget) const {
  if (budget <= 0.0) return;
  const double est = estimated_wait_s();
  if (est <= budget) return;
  if (metrics_)
    metrics_->deadline_shed_total.fetch_add(1, std::memory_order_relaxed);
  note_shed();
  throw DeadlineExceededError(
      "InferenceBatcher: estimated queue wait " + std::to_string(est) +
          " s exceeds the request deadline budget " + std::to_string(budget) +
          " s",
      est);
}

void InferenceBatcher::note_shed() const {
  shed_since_health_.fetch_add(1, std::memory_order_relaxed);
}

HealthState InferenceBatcher::health() {
  if (draining_.load(std::memory_order_acquire)) return HealthState::kDraining;
  // Latched: any shed since the previous probe marks one degraded reading.
  if (shed_since_health_.exchange(0, std::memory_order_relaxed) != 0)
    return HealthState::kDegraded;
  if (in_flight() * 2 >= ring_->capacity()) return HealthState::kDegraded;
  return HealthState::kOk;
}

void InferenceBatcher::update_service_ewma(double batch_s) {
  const auto ns = static_cast<std::uint64_t>(batch_s * 1e9);
  // Racy read-modify-write across workers: acceptable — the EWMA only
  // feeds estimated_wait_s, a monitoring signal, never correctness.
  const std::uint64_t prev = ewma_batch_ns_.load(std::memory_order_relaxed);
  const std::uint64_t next = prev == 0 ? ns : (prev * 7 + ns) / 8;
  ewma_batch_ns_.store(next, std::memory_order_relaxed);
}

void InferenceBatcher::count_flush(std::size_t batch_size) {
  if (!metrics_ || batch_size == 0) return;
  metrics_->batches_total.fetch_add(1, std::memory_order_relaxed);
  if (batch_size >= opt_.max_batch)
    metrics_->full_flushes_total.fetch_add(1, std::memory_order_relaxed);
  else
    metrics_->deadline_flushes_total.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Request path
// ---------------------------------------------------------------------------

void InferenceBatcher::query_async(const std::string& scenario,
                                   std::vector<double> x, double deadline_s,
                                   Completion done, void* ctx,
                                   std::uint64_t tag1, std::uint64_t tag2) {
  SGM_CHECK_ARG(done != nullptr,
                "InferenceBatcher: query_async needs a completion");
  if (draining_.load(std::memory_order_acquire))
    throw std::runtime_error("InferenceBatcher: query after stop()");
  maybe_shed(deadline_s < 0.0 ? opt_.default_deadline_s : deadline_s);
  std::uint32_t idx = 0;
  if (!freelist_->try_pop(idx)) {
    // Bounded queue full: shed load now instead of queueing unboundedly.
    if (metrics_)
      metrics_->rejected_total.fetch_add(1, std::memory_order_relaxed);
    note_shed();
    throw QueueFullError("InferenceBatcher: request queue full (capacity " +
                         std::to_string(ring_->capacity()) + ")");
  }
  Slot& slot = slots_[idx];
  slot.scenario = scenario;
  slot.x = std::move(x);
  slot.done = done;
  slot.done_ctx = ctx;
  slot.done_tag1 = tag1;
  slot.done_tag2 = tag2;
  slot.err = QueryError::kNone;
  slot.message.clear();
  slot.since_enqueue.reset();
  slot.deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt_.max_delay_s));

  // Dekker pair with stop(): either this push lands before stop() starts
  // its final drain (stop spins until pending_pushes_ is 0), or the
  // stop_flag_ recheck below sees the stop and backs out.
  pending_pushes_.fetch_add(1, std::memory_order_seq_cst);
  if (stop_flag_.load(std::memory_order_seq_cst)) {
    pending_pushes_.fetch_sub(1, std::memory_order_release);
    for (int s = 0; !freelist_->try_push(idx);) backoff(s);
    throw std::runtime_error("InferenceBatcher: query after stop()");
  }
  // Occupancy never exceeds the slot count == ring capacity, so a push can
  // only fail in the few-instruction window where a popping worker has
  // claimed the head but not yet recycled the slot sequence; back it off.
  for (int s = 0; !ring_->try_push(idx);) backoff(s);
  pending_pushes_.fetch_sub(1, std::memory_order_release);
  gate_.notify();
}

void InferenceBatcher::complete_slot(Slot& slot) {
  // This thread owns the slot: move the outcome out, recycle the slot (it
  // is back in the pool before the callback runs, so a slow callback never
  // holds queue capacity), then deliver.
  const Completion done = slot.done;
  void* const ctx = slot.done_ctx;
  const std::uint64_t tag1 = slot.done_tag1;
  const std::uint64_t tag2 = slot.done_tag2;
  Response resp = std::move(slot.resp);
  const QueryError err = slot.err;
  std::string message = std::move(slot.message);
  slot.resp = Response{};
  slot.message = std::string();
  const auto idx = static_cast<std::uint32_t>(&slot - slots_.get());
  for (int s = 0; !freelist_->try_push(idx);) backoff(s);
  done(ctx, tag1, tag2, std::move(resp), err, message);
}

void InferenceBatcher::fail_slot(Slot& slot, QueryError err,
                                 const std::string& message) {
  slot.err = err;
  slot.message = message;
  complete_slot(slot);
}

void InferenceBatcher::drain_ring_failing() {
  std::uint32_t idx = 0;
  while (ring_->try_pop(idx))
    fail_slot(slots_[idx], QueryError::kRuntime,
              "InferenceBatcher: stopped before serving");
}

void InferenceBatcher::worker_loop() {
  // Requests popped for a different scenario than the batch under assembly
  // wait here; the next iteration serves them first (oldest first).
  std::vector<std::uint32_t> stash;
  std::vector<std::uint32_t> batch;
  const auto stop_drain = [this, &stash] {
    for (const std::uint32_t idx : stash)
      fail_slot(slots_[idx], QueryError::kRuntime,
                "InferenceBatcher: stopped before serving");
    stash.clear();
    drain_ring_failing();
  };
  for (;;) {
    // --- obtain the batch's first (oldest) member -------------------------
    std::uint32_t first = 0;
    bool have_first = false;
    if (!stash.empty()) {
      first = stash.front();
      stash.erase(stash.begin());
      have_first = true;
    }
    while (!have_first) {
      if (stop_flag_.load(std::memory_order_acquire)) {
        stop_drain();
        return;
      }
      if (ring_->try_pop(first)) {
        have_first = true;
        break;
      }
      for (int i = 0; i < kWorkerSpins && !have_first; ++i) {
        util::cpu_relax();
        have_first = ring_->try_pop(first);
      }
      if (have_first) break;
      const util::RingGate::Ticket ticket = gate_.prepare_wait();
      if (ring_->try_pop(first)) {  // mandatory recheck (see RingGate)
        gate_.cancel_wait();
        have_first = true;
        break;
      }
      if (stop_flag_.load(std::memory_order_acquire)) {
        gate_.cancel_wait();
        stop_drain();
        return;
      }
      gate_.wait(ticket);
    }

    const std::string scenario = slots_[first].scenario;
    const Clock::time_point deadline = slots_[first].deadline;
    batch.clear();
    batch.push_back(first);

    // --- coalesce: stashed entries first, then new arrivals ---------------
    for (auto it = stash.begin();
         it != stash.end() && batch.size() < opt_.max_batch;) {
      if (slots_[*it].scenario == scenario) {
        batch.push_back(*it);
        it = stash.erase(it);
      } else {
        ++it;
      }
    }
    // Deadline flush: a partial batch waits for stragglers only until the
    // oldest member's deadline, bounding tail latency at low load.
    int yields = 0;
    while (batch.size() < opt_.max_batch &&
           !stop_flag_.load(std::memory_order_acquire)) {
      std::uint32_t idx = 0;
      if (ring_->try_pop(idx)) {
        (slots_[idx].scenario == scenario ? batch : stash).push_back(idx);
        yields = 0;
        continue;
      }
      if (Clock::now() >= deadline) break;
      // Give producers the CPU first: a woken client pushes through the
      // gate's no-waiter fast path (no lock, no futex), so under load the
      // batch fills without a park/unpark syscall pair per arrival.
      if (yields < kCollectYields) {
        ++yields;
        std::this_thread::yield();
        continue;
      }
      const util::RingGate::Ticket ticket = gate_.prepare_wait();
      if (ring_->try_pop(idx)) {
        gate_.cancel_wait();
        (slots_[idx].scenario == scenario ? batch : stash).push_back(idx);
        continue;
      }
      if (stop_flag_.load(std::memory_order_acquire)) {
        gate_.cancel_wait();
        break;
      }
      if (!gate_.wait_until(ticket, deadline)) break;
    }

    count_flush(batch.size());
    serve_slots(batch);
  }
}

void InferenceBatcher::serve_slots(const std::vector<std::uint32_t>& batch) {
  if (batch.empty()) return;
  util::WallTimer service_timer;  // feeds the estimated-wait EWMA

  // One acquire per batch: every response below carries this version.
  ServedModelPtr served;
  try {
    served = registry_.acquire(slots_[batch.front()].scenario);
  } catch (const std::exception& e) {
    if (metrics_)
      metrics_->query_errors_total.fetch_add(batch.size(),
                                             std::memory_order_relaxed);
    const QueryError kind = dynamic_cast<const std::out_of_range*>(&e)
                                ? QueryError::kNotFound
                                : QueryError::kRuntime;
    for (const std::uint32_t idx : batch) fail_slot(slots_[idx], kind, e.what());
    return;
  }
  const nn::Mlp& net = *served->model;
  const std::size_t in_dim = net.config().input_dim;
  const std::size_t out_dim = net.config().output_dim;

  // Per-worker pooled buffers (thread_local: serve_slots only runs on
  // worker threads, and each worker reuses its own capacity run-to-run).
  thread_local tensor::Matrix xb, yb;
  thread_local nn::Mlp::ForwardWorkspace ws;

  std::vector<Slot*> valid;
  valid.reserve(batch.size());
  for (const std::uint32_t idx : batch) {
    Slot& slot = slots_[idx];
    if (slot.x.size() == in_dim) {
      valid.push_back(&slot);
      continue;
    }
    if (metrics_)
      metrics_->query_errors_total.fetch_add(1, std::memory_order_relaxed);
    fail_slot(slot, QueryError::kInvalidArgument,
              "InferenceBatcher: query width " + std::to_string(slot.x.size()) +
                  " != input_dim " + std::to_string(in_dim));
  }
  if (valid.empty()) return;

  xb.resize(valid.size(), in_dim);
  for (std::size_t r = 0; r < valid.size(); ++r) {
    double* row = xb.row(r);
    for (std::size_t c = 0; c < in_dim; ++c) row[c] = valid[r]->x[c];
  }
  try {
    net.forward_batched(xb, yb, ws, opt_.num_threads);
  } catch (const std::exception& e) {
    if (metrics_)
      metrics_->query_errors_total.fetch_add(valid.size(),
                                             std::memory_order_relaxed);
    for (Slot* slot : valid)
      fail_slot(*slot, QueryError::kRuntime, e.what());
    return;
  }
  SGM_CHECK(yb.rows() == valid.size() && yb.cols() == out_dim,
            "forward_batched returned ", yb.rows(), "x", yb.cols(),
            " for a ", valid.size(), "-query batch of width ", out_dim);

  // Counters first, fulfillment second: a client that has its response in
  // hand must already be visible in the metrics (complete_slot unblocks the
  // caller immediately, so anything after it races with the client).
  if (metrics_) {
    metrics_->batched_queries_total.fetch_add(valid.size(),
                                              std::memory_order_relaxed);
    metrics_->queries_total.fetch_add(valid.size(), std::memory_order_relaxed);
  }
  for (std::size_t r = 0; r < valid.size(); ++r) {
    Slot& slot = *valid[r];
    slot.resp.y.assign(yb.row(r), yb.row(r) + out_dim);
    slot.resp.version = served->info.meta.model_version;
    slot.resp.checksum = served->info.checksum;
    if (metrics_)
      metrics_->query_latency.record(slot.since_enqueue.elapsed_s());
    complete_slot(slot);
  }
  update_service_ewma(service_timer.elapsed_s());
}

// ---------------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------------

void InferenceBatcher::stop() {
  // Graceful drain: flip to draining (query_async rejects from here on) and
  // give the workers a bounded window to answer what was already accepted.
  // Already-draining calls fall through immediately once in-flight work is
  // gone, keeping stop() idempotent.
  draining_.store(true, std::memory_order_seq_cst);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt_.drain_deadline_s));
  while (in_flight() != 0 && Clock::now() < deadline)
    std::this_thread::yield();

  // Hard stop.
  stop_flag_.store(true, std::memory_order_seq_cst);
  // Let in-flight ring pushes land before the final drain (Dekker pair with
  // query_async): any client past its stop recheck has already incremented
  // pending_pushes_.
  while (pending_pushes_.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  gate_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  drain_ring_failing();  // entries that raced past the exiting workers
}

}  // namespace sgm::serve
