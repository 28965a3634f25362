#pragma once
// Background S1+S2 rebuild (Algorithm 1, lines 14-18): the paper overlaps
// PGM construction and LRD decomposition with training on worker threads,
// swapping the new clustering in when ready ("S <- S_new"). This class owns
// the worker thread; the sampler polls try_take() once per iteration and
// keeps training on the previous clustering until a result lands.

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "core/cluster_store.hpp"
#include "core/pgm.hpp"
#include "graph/lrd.hpp"
#include "tensor/matrix.hpp"
#include "util/mutex.hpp"

namespace sgm::core {

class AsyncRebuilder {
 public:
  AsyncRebuilder() = default;
  ~AsyncRebuilder();

  AsyncRebuilder(const AsyncRebuilder&) = delete;
  AsyncRebuilder& operator=(const AsyncRebuilder&) = delete;

  /// Starts a rebuild from a snapshot of the inputs. No-op when one is
  /// already running.
  void launch(tensor::Matrix points, std::unique_ptr<tensor::Matrix> outputs,
              PgmOptions pgm, graph::LrdOptions lrd);

  /// Runs an arbitrary clustering job on the worker thread — the incremental
  /// refresh path hands its engine (plus an outputs snapshot) in here. The
  /// caller must not touch state the job reads/writes until the job has been
  /// reaped via try_take()/wait(); the sampler guarantees this by waiting
  /// before every launch and before every score refresh (the PR 2
  /// determinism barrier). No-op when a job is already running.
  void launch_job(std::function<graph::Clustering()> job);

  /// True while the worker is still computing.
  bool running() const { return running_.load(); }

  /// Returns the finished clustering exactly once, if available. When the
  /// job threw, rethrows its exception here instead, also exactly once;
  /// the rebuilder is then idle and accepts the next launch.
  std::optional<graph::Clustering> try_take();

  /// Blocks until any in-flight rebuild finishes (used by tests/dtor).
  /// Never throws: a job's exception waits for try_take().
  void wait();

 private:
  std::thread worker_;
  /// Lock-free poll flag: cleared by the worker only after the result has
  /// been published under mu_, so running_ == false makes the result (if
  /// any) visible to a subsequent lock of mu_.
  std::atomic<bool> running_{false};
  util::Mutex mu_;
  bool has_result_ SGM_GUARDED_BY(mu_) = false;
  graph::Clustering result_ SGM_GUARDED_BY(mu_);
  /// Set instead of result_ when the job threw.
  std::exception_ptr error_ SGM_GUARDED_BY(mu_);
};

}  // namespace sgm::core
