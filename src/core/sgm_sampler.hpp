#pragma once
// The SGM-PINN sampler — Algorithm 1 of the paper, wired as a drop-in
// samplers::Sampler so the trainer can A/B it against uniform and MIS.
//
// Pipeline per refresh (every tau_e iterations):
//   S1/S2 (every tau_G)  rebuild kNN PGM + LRD clusters (optionally on a
//                        background thread, optionally folding the model
//                        outputs into the graph metric);
//   line 5-6             draw r% representatives per cluster, evaluate
//                        their current losses via the trainer callback;
//   S3 (optional)        ISR stability scores on the same representative
//                        subset (parameterized problems);
//   line 8-9             combine + normalize into cluster scores, map to
//                        sampling ratios;
//   line 10              materialize the epoch (floor 1 per cluster) and
//                        deal shuffled mini-batches from it until the next
//                        refresh.

#include <memory>
#include <optional>

#include "core/async_rebuild.hpp"
#include "core/cluster_store.hpp"
#include "core/dirty_tracker.hpp"
#include "core/epoch_builder.hpp"
#include "core/incremental_refresh.hpp"
#include "core/pgm.hpp"
#include "core/refresh_scheduler.hpp"
#include "core/scorer.hpp"
#include "graph/lrd.hpp"
#include "samplers/sampler.hpp"
#include "spade/isr.hpp"

namespace sgm::core {

struct SgmOptions {
  PgmOptions pgm{};                 ///< S1: kNN size k, weights
  graph::LrdOptions lrd{};          ///< S2: levels L, diameter budget
  double rep_fraction = 0.15;       ///< r: per-cluster loss-sample ratio
  std::uint64_t tau_e = 7000;       ///< score/epoch refresh period
  std::uint64_t tau_g = 25000;      ///< graph/cluster rebuild period
  EpochBuilderOptions epoch{};      ///< epoch size + ratio mapping
  ScorerOptions scorer{};           ///< ISR fusion weight
  bool use_isr = false;             ///< S3 on/off (SGM-S vs SGM)
  spade::IsrOptions isr{};          ///< S3 configuration
  /// kNN size for the representative-subset input graph used by ISR.
  std::size_t isr_subset_k = 8;
  bool async_rebuild = false;       ///< rebuild S1/S2 on a worker thread
  /// When rebuilding, append current outputs to the PGM metric with this
  /// weight (0 keeps the metric purely spatial).
  double rebuild_output_weight = 0.0;
  /// Worker threads for the S1/S2 rebuild (kNN queries, edge assembly, ER
  /// embedding). Nonzero overrides pgm.num_threads / lrd.num_threads; 0
  /// defers to them (whose own 0 means util::resolve_threads default, i.e.
  /// hardware concurrency). 1 = serial; every value produces an identical
  /// PGM and clustering for a fixed seed.
  std::size_t num_threads = 0;
  std::uint64_t seed = 2024;

  // --- Incremental refresh (core/incremental_refresh) --------------------
  /// When true, S1/S2 rebuilds run through the IncrementalRefreshEngine:
  /// only points whose output features drifted beyond dirty_tolerance are
  /// re-inserted into the kNN graph, ER re-sweeps are localized around
  /// the changed edges, and the engine falls back to a full rebuild when
  /// the dirty fraction exceeds incremental_threshold.
  /// Meaningful together with rebuild_output_weight > 0 and an outputs
  /// provider; with a purely spatial metric nothing ever drifts and every
  /// rebuild after the first becomes a (cheap) no-op — which is the win.
  bool incremental_refresh = false;
  /// Dirty fraction above which the engine rebuilds from scratch. Negative
  /// forces the full path every refresh (the equivalence-test baseline);
  /// >= 1 never falls back.
  double incremental_threshold = 0.30;
  /// Relative per-feature drift that makes a point dirty (0 = any bitwise
  /// change; exact-equivalence setting).
  double dirty_tolerance = 0.0;
  /// Stale-ER amortization ratio (see IncrementalRefreshOptions::
  /// er_stale_ratio): cumulative changed-edge fraction tolerated before an
  /// exact ER resync. 0 = resync every rebuild (strict equivalence).
  double er_stale_ratio = 0.0;
  /// Dirty-fraction-aware rebuild cadence: the engine's measured dirty
  /// fraction (at rebuilds) and the representative-loss drift (between
  /// them, see loss_dirty_tolerance) modulate the effective tau_G. Only
  /// active when incremental_refresh is on; the legacy fixed cadence is
  /// untouched otherwise.
  RefreshCadence cadence{};
  /// Relative representative-loss drift that counts a point dirty for the
  /// cadence signal.
  double loss_dirty_tolerance = 0.25;
};

class SgmSampler final : public samplers::Sampler {
 public:
  /// `points` must outlive the sampler. Builds the initial PGM + clusters
  /// eagerly (the paper does this before training starts).
  SgmSampler(const tensor::Matrix& points, const SgmOptions& options);

  /// Joins any in-flight async rebuild BEFORE members destruct: the worker
  /// job holds a raw pointer to engine_, which (being declared after
  /// async_) would otherwise be freed while the worker still runs.
  ~SgmSampler() override { async_.wait(); }

  std::string name() const override {
    return opt_.use_isr ? "sgm-s" : "sgm";
  }

  std::vector<std::uint32_t> next_batch(std::size_t batch_size,
                                        util::Rng& rng) override;

  void maybe_refresh(std::uint64_t iteration,
                     const samplers::LossEvaluator& evaluate,
                     util::Rng& rng) override;

  /// Supplies the model-output matrix used when rebuilding the PGM with
  /// output features (optional; callers that skip it, or leave
  /// rebuild_output_weight at 0, get purely spatial rebuilds). ISR does
  /// not consume this: its output manifold is the representative losses.
  void set_outputs_provider(
      std::function<tensor::Matrix(const std::vector<std::uint32_t>&)>
          provider) {
    outputs_provider_ = std::move(provider);
  }

  const ClusterStore& clusters() const { return clusters_; }
  const ClusterScores& last_scores() const { return last_scores_; }
  std::size_t last_epoch_size() const { return last_epoch_size_; }
  std::uint64_t rebuild_count() const { return rebuild_count_; }
  /// The incremental engine's stats for the most recent refresh (zeroed
  /// struct when incremental_refresh is off or nothing refreshed yet).
  const RefreshStats& last_refresh_stats() const { return last_refresh_stats_; }
  const RefreshScheduler& scheduler() const { return schedule_; }

 private:
  void rebuild_clusters(util::Rng& rng);
  void rebuild_clusters_incremental();
  std::unique_ptr<tensor::Matrix> snapshot_outputs() const;
  void observe_engine_stats();
  std::vector<double> representative_isr(
      const ClusterStore::Representatives& reps,
      const std::vector<double>& rep_loss);

  const tensor::Matrix& points_;
  SgmOptions opt_;
  RefreshScheduler schedule_;
  ClusterStore clusters_;
  samplers::EpochDealer dealer_;
  ClusterScores last_scores_;
  std::size_t last_epoch_size_ = 0;
  std::uint64_t rebuild_count_ = 0;
  AsyncRebuilder async_;
  std::function<tensor::Matrix(const std::vector<std::uint32_t>&)>
      outputs_provider_;
  std::unique_ptr<IncrementalRefreshEngine> engine_;  // incremental_refresh
  DirtyTracker loss_tracker_;                         // cadence signal
  RefreshStats last_refresh_stats_;
  std::uint64_t observed_rebuilds_ = 0;
};

}  // namespace sgm::core
