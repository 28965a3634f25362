#pragma once
// The SGM-PINN sampler — Algorithm 1 of the paper, wired as a drop-in
// samplers::Sampler so the trainer can A/B it against uniform and MIS.
//
// Pipeline per refresh (every tau_e iterations):
//   S1/S2 (every tau_G)  rebuild kNN PGM + LRD clusters (optionally
//                        folding the model outputs into the graph metric);
//   line 5-6             draw r% representatives per cluster, evaluate
//                        their current losses via the trainer callback;
//   S3 (optional)        ISR stability scores on the same representative
//                        subset (parameterized problems);
//   line 8-9             combine + normalize into cluster scores, map to
//                        sampling ratios;
//   line 10              materialize the epoch (floor 1 per cluster) and
//                        deal shuffled mini-batches from it until the next
//                        refresh.

#include <functional>
#include <memory>

#include "core/cluster_store.hpp"
#include "core/epoch_builder.hpp"
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
  /// When rebuilding, append current outputs to the PGM metric with this
  /// weight (0 keeps the metric purely spatial).
  double rebuild_output_weight = 0.0;
  /// Worker threads for the S1/S2 rebuild (kNN queries, edge assembly, ER
  /// embedding). Nonzero overrides pgm.num_threads / lrd.num_threads; 0
  /// defers to them (whose own 0 means util::resolve_threads default, i.e.
  /// hardware concurrency). 1 = serial; every value produces an identical
  /// PGM and clustering (S2's random draws come from lrd.er.seed).
  std::size_t num_threads = 0;
};

class SgmSampler final : public samplers::Sampler {
 public:
  /// `points` must outlive the sampler. Builds the initial PGM + clusters
  /// eagerly (the paper does this before training starts).
  SgmSampler(const tensor::Matrix& points, const SgmOptions& options);

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

 private:
  void rebuild_clusters();
  std::unique_ptr<tensor::Matrix> snapshot_outputs() const;
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
  std::function<tensor::Matrix(const std::vector<std::uint32_t>&)>
      outputs_provider_;
};

}  // namespace sgm::core
