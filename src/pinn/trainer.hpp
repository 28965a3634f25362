#pragma once
// The sampler-agnostic training loop. All experiment arms (uniform / MIS /
// SGM / SGM-S) share this trainer; only the injected Sampler differs, which
// is the paper's controlled variable.
//
// Telemetry rules (what the tables/figures are computed from):
//  * "train wall time" includes forward/backward/optimizer AND all sampler
//    refresh work (the overhead the paper trades against) — but excludes
//    validation, which exists only for measurement;
//  * validation errors are recorded every `validate_every` iterations,
//    giving the error-vs-time curves of Figs. 2-3 and the minima /
//    time-to-reach entries of Tables 1-2.
//
// Robustness (opt-in via TrainerOptions, off by default so paper runs are
// untouched):
//  * divergence sentinel — every step's loss and gradients are checked for
//    non-finite values BEFORE the optimizer applies them, so a blow-up
//    never poisons the parameters. On divergence the trainer rolls back to
//    the last periodic in-memory snapshot (params + Adam state + RNG +
//    telemetry accumulators), halves the learning rate (divergence_lr_
//    backoff) and retries; retries are bounded per snapshot interval
//    (max_divergence_retries), after which it throws. The `trainer.diverge`
//    failpoint injects a divergence for the chaos tests.
//  * durable checkpoints — checkpoint_path + checkpoint_every write a
//    crash-safe train checkpoint (pinn/train_checkpoint.*); `resume` picks
//    the run back up from it. The snapshot carries everything the loop
//    reads — params, Adam, RNG, accumulators AND the sampler's dealer
//    position — so resume is byte-identical (even mid-epoch) for samplers
//    whose batch stream is pure (dealer, rng), i.e. uniform. SGM samplers
//    rebuild their refresh tables and continue as a valid but not
//    bit-equal run.

#include <limits>
#include <string>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "pinn/pde.hpp"
#include "samplers/sampler.hpp"

namespace sgm::pinn {

struct TrainerOptions {
  std::size_t batch_size = 512;
  std::uint64_t max_iterations = 2000;
  double wall_time_budget_s = 0.0;  ///< stop early when > 0 and exceeded
  double learning_rate = 1e-3;
  double lr_gamma = 0.97;           ///< exponential decay factor
  std::uint64_t lr_decay_steps = 1000;
  std::uint64_t validate_every = 200;
  std::string telemetry_csv;        ///< optional CSV path ("" = off)
  std::uint64_t seed = 1;
  /// Most worker threads the forward/backward tape kernels may use (the
  /// training step itself, not the sampler rebuilds — those are
  /// SgmOptions::num_threads). 0 = SGM_NUM_THREADS env or hardware
  /// concurrency. An upper bound: a kernel below two of Tape::kWorkFloor
  /// runs on the training thread, which is every kernel of a 128-row,
  /// width-48 step. Histories are byte-identical at any setting.
  std::size_t num_threads = 0;

  // --- robustness / recovery (all off by default) --------------------------
  /// Take an in-memory rollback snapshot every N completed iterations
  /// (0 = off). With snapshots off, a detected divergence throws instead of
  /// rolling back.
  std::uint64_t snapshot_every = 0;
  /// Divergences tolerated per snapshot interval before giving up.
  std::size_t max_divergence_retries = 3;
  /// Learning-rate multiplier applied on every rollback (compounds).
  double divergence_lr_backoff = 0.5;
  /// Durable train checkpoint file ("" = off); written every
  /// checkpoint_every completed iterations and at the final iteration.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;
  /// Resume from checkpoint_path if the file exists (fresh start with a
  /// warning when it does not).
  bool resume = false;
};

struct TrainRecord {
  std::uint64_t iteration = 0;
  double train_wall_s = 0.0;  ///< cumulative, validation excluded
  double mean_loss = 0.0;     ///< mean batch loss since previous record
  std::vector<ValidationEntry> validation;
};

struct TrainHistory {
  std::vector<TrainRecord> records;
  double total_train_wall_s = 0.0;
  double sampler_refresh_s = 0.0;
  std::uint64_t sampler_loss_evaluations = 0;
  std::string sampler_name;
  /// Divergence-sentinel rollbacks taken (0 on a healthy run).
  std::uint64_t divergence_rollbacks = 0;
  /// Iteration the run resumed from (0 = fresh start).
  std::uint64_t resumed_from_iteration = 0;

  /// Minimum validation error observed for a metric (inf when absent).
  double best_error(const std::string& metric) const;

  /// Train wall time of the first record whose `metric` error is <=
  /// `threshold` (inf when never reached) — the T(M_j) entries of the
  /// paper's tables.
  double time_to_reach(const std::string& metric, double threshold) const;
};

class Trainer {
 public:
  /// Throws std::invalid_argument when batch_size or validate_every is 0.
  Trainer(const PinnProblem& problem, nn::Mlp& net,
          samplers::Sampler& sampler, const TrainerOptions& options);

  /// Runs the full loop and returns the telemetry history.
  TrainHistory run();

 private:
  const PinnProblem& problem_;
  nn::Mlp& net_;
  samplers::Sampler& sampler_;
  TrainerOptions opt_;
};

}  // namespace sgm::pinn
