#include "core/async_rebuild.hpp"

#include <utility>

namespace sgm::core {

AsyncRebuilder::~AsyncRebuilder() { wait(); }

void AsyncRebuilder::launch_job(std::function<graph::Clustering()> job) {
  if (running_.load()) return;
  wait();  // join any finished-but-unjoined worker
  {
    util::MutexLock lock(mu_);
    has_result_ = false;
    error_ = nullptr;
  }
  running_.store(true);
  worker_ = std::thread([this, job = std::move(job)]() {
    // An exception escaping the thread's entry function would terminate
    // the process; carry it to the training thread instead.
    graph::Clustering r;
    std::exception_ptr error;
    try {
      r = job();
    } catch (...) {
      error = std::current_exception();
    }
    {
      util::MutexLock lock(mu_);
      result_ = std::move(r);
      error_ = std::move(error);
      has_result_ = true;
    }
    running_.store(false);  // last: publishes the result to try_take()
  });
}

void AsyncRebuilder::launch(tensor::Matrix points,
                            std::unique_ptr<tensor::Matrix> outputs,
                            PgmOptions pgm, graph::LrdOptions lrd) {
  // std::function requires a copyable callable — park the outputs snapshot
  // in a shared_ptr.
  std::shared_ptr<tensor::Matrix> out(outputs.release());
  launch_job([points = std::move(points), out = std::move(out),
              pgm = std::move(pgm), lrd = std::move(lrd)]() {
    graph::CsrGraph g = build_pgm(points, out.get(), pgm);
    return graph::lrd_decompose(g, lrd);
  });
}

std::optional<graph::Clustering> AsyncRebuilder::try_take() {
  if (running_.load()) return std::nullopt;
  std::optional<graph::Clustering> out;
  std::exception_ptr error;
  {
    util::MutexLock lock(mu_);
    if (!has_result_) return std::nullopt;
    has_result_ = false;
    error = std::exchange(error_, nullptr);
    if (!error) out.emplace(std::move(result_));
  }
  if (worker_.joinable()) worker_.join();
  if (error) std::rethrow_exception(error);
  return out;
}

void AsyncRebuilder::wait() {
  if (worker_.joinable()) worker_.join();
}

}  // namespace sgm::core
