#pragma once
// Fixed-size worker pool + deterministic parallel-for — the threading
// substrate of the S1/S2 build (kNN queries, ER column groups, per-edge ER),
// the tape kernels above their work floor and batched serving forwards.
//
// Determinism contract (what makes `num_threads=N` byte-identical to
// `num_threads=1`): `parallel_for_chunks` splits an index range into chunks
// whose boundaries depend only on the `grain` argument — never on the thread
// count — and hands each chunk a stable chunk index. Callers that (a) write
// only to per-index or per-chunk slots inside the body and (b) merge
// per-chunk partial results sequentially in chunk order get bit-identical
// output no matter how many workers execute the chunks, because the
// *algorithm* (chunk layout + merge order) is fixed and only the *execution*
// is concurrent. With one thread the chunks simply run inline, in order.

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.hpp"

namespace sgm::util {

/// Resolves a requested thread count: n > 0 is taken literally; 0 selects
/// the `SGM_NUM_THREADS` environment variable when it holds a decimal
/// integer in [1, 256], otherwise (unset, empty or "0")
/// std::thread::hardware_concurrency() (minimum 1). Any other value of the
/// variable throws std::invalid_argument naming it.
std::size_t resolve_threads(std::size_t requested);

/// Fixed pool of worker threads draining a shared task queue. Safe to submit
/// from multiple threads at once.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 resolves as resolve_threads(0)).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the future carries its result (or exception).
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mu_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs one queued task on the calling thread, if any is pending. Used by
  /// parallel_for_chunks waiters so nested parallel loops can never deadlock
  /// the pool (a blocked waiter drains the queue instead of just sleeping).
  bool try_run_one();

  /// Process-wide pool shared by all parallel loops. Sized to at least 4
  /// workers even on smaller machines so requests for num_threads > cores
  /// stay genuinely concurrent (this is what lets ThreadSanitizer exercise
  /// the concurrent paths on 1-2 core CI runners).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ SGM_GUARDED_BY(mu_);
  bool stop_ SGM_GUARDED_BY(mu_) = false;
};

/// Number of chunks `parallel_for_chunks(begin, end, grain, ...)` produces.
std::size_t num_chunks(std::size_t begin, std::size_t end, std::size_t grain);

/// Runs `fn(chunk_begin, chunk_end, chunk_index)` over every grain-sized
/// chunk of [begin, end). Chunk boundaries depend only on `grain` (see the
/// determinism contract above). Blocks until every chunk finished; the
/// calling thread participates, so this is safe to call from inside a pool
/// task (no deadlock — the caller can always drain the remaining chunks
/// itself). The first exception thrown by `fn` is rethrown here after all
/// chunks complete. num_threads: 0 = resolve_threads default, 1 = inline
/// serial execution.
void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    std::size_t num_threads,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Per-index convenience over parallel_for_chunks for loops whose
/// iterations are independent and write only their own slot (no reduction):
/// runs `fn(i)` for every i in [begin, end).
void parallel_for(std::size_t begin, std::size_t end, std::size_t num_threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace sgm::util
