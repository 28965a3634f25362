#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

namespace sgm::util {

namespace {
// Largest count SGM_NUM_THREADS may ask for: it sizes ThreadPool::shared(),
// so an unbounded value would start that many OS threads.
constexpr std::size_t kMaxEnvThreads = 256;
}  // namespace

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("SGM_NUM_THREADS")) {
    // Digits only, accumulated with an early cap check: no sign, space or
    // trailing text, and no overflow.
    std::size_t v = 0;
    const char* p = env;
    for (; *p >= '0' && *p <= '9' && v <= kMaxEnvThreads; ++p)
      v = v * 10 + static_cast<std::size_t>(*p - '0');
    if (*p != '\0' || v > kMaxEnvThreads)
      throw std::invalid_argument(
          "SGM_NUM_THREADS must be empty or an integer in [0, " +
          std::to_string(kMaxEnvThreads) + "], got \"" + env + "\"");
    if (v > 0) return v;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = num_threads > 0 ? num_threads : resolve_threads(0);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this]() { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(mu_);
      if (queue_.empty()) return;  // only reachable when stop_ is set
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    MutexLock lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max<std::size_t>(resolve_threads(0), 4));
  return pool;
}

std::size_t num_chunks(std::size_t begin, std::size_t end, std::size_t grain) {
  if (end <= begin) return 0;
  const std::size_t g = std::max<std::size_t>(grain, 1);
  return (end - begin + g - 1) / g;
}

void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    std::size_t num_threads,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const std::size_t g = std::max<std::size_t>(grain, 1);
  const std::size_t chunks = num_chunks(begin, end, g);
  if (chunks == 0) return;
  const std::size_t threads = resolve_threads(num_threads);

  if (threads <= 1 || chunks <= 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t cb = begin + c * g;
      fn(cb, std::min(end, cb + g), c);
    }
    return;
  }

  // Dynamic chunk claiming: which thread runs a chunk is scheduling-
  // dependent, but the chunk layout is not, so outputs stay deterministic.
  std::atomic<std::size_t> next{0};
  Mutex err_mu;
  std::exception_ptr first_error;
  auto runner = [&]() {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::size_t cb = begin + c * g;
      try {
        fn(cb, std::min(end, cb + g), c);
      } catch (...) {
        MutexLock lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  const std::size_t helpers = std::min(threads, chunks) - 1;
  std::vector<std::future<void>> pending;
  pending.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i)
    pending.push_back(ThreadPool::shared().submit(runner));
  runner();  // the caller is one of the runners
  for (auto& f : pending) {
    // Help drain the queue while waiting so nested parallel loops cannot
    // deadlock when every worker is itself blocked in a wait like this one.
    while (f.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!ThreadPool::shared().try_run_one())
        f.wait_for(std::chrono::microseconds(200));
    }
    f.get();
  }
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t num_threads,
                  const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t threads = resolve_threads(num_threads);
  // Independent iterations: any grain is correct; pick one that gives each
  // thread a few chunks for load balance.
  const std::size_t n = end - begin;
  const std::size_t grain =
      std::max<std::size_t>(1, n / std::max<std::size_t>(threads * 4, 1));
  parallel_for_chunks(begin, end, grain, num_threads,
                      [&fn](std::size_t b, std::size_t e, std::size_t) {
                        for (std::size_t i = b; i < e; ++i) fn(i);
                      });
}

}  // namespace sgm::util
