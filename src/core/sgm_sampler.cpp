#include "core/sgm_sampler.hpp"

#include <numeric>

#include "util/log.hpp"

namespace sgm::core {

using tensor::Matrix;

SgmSampler::SgmSampler(const Matrix& points, const SgmOptions& options)
    : points_(points),
      opt_(options),
      schedule_(options.tau_e, options.tau_g),
      dealer_(static_cast<std::uint32_t>(points.rows())) {
  if (opt_.num_threads) {
    opt_.pgm.num_threads = opt_.num_threads;
    opt_.lrd.num_threads = opt_.num_threads;
  }
  util::WallTimer timer;
  graph::CsrGraph g = build_pgm(points_, nullptr, opt_.pgm);
  clusters_ = ClusterStore(graph::lrd_decompose(g, opt_.lrd));
  refresh_seconds_ += timer.elapsed_s();
  util::log_info() << "SgmSampler: initial PGM n=" << points_.rows()
                   << " clusters=" << clusters_.num_clusters();
}

std::vector<std::uint32_t> SgmSampler::next_batch(std::size_t batch_size,
                                                  util::Rng& rng) {
  return dealer_.next(batch_size, rng);
}

std::unique_ptr<Matrix> SgmSampler::snapshot_outputs() const {
  if (!outputs_provider_ || opt_.rebuild_output_weight <= 0.0) return nullptr;
  std::vector<std::uint32_t> all(points_.rows());
  std::iota(all.begin(), all.end(), 0u);
  return std::make_unique<Matrix>(outputs_provider_(all));
}

void SgmSampler::rebuild_clusters() {
  // The provider evaluation over all points is part of the rebuild and is
  // charged to refresh_seconds_ with it.
  util::WallTimer timer;
  std::unique_ptr<Matrix> outputs = snapshot_outputs();
  PgmOptions pgm = opt_.pgm;
  pgm.output_feature_weight = opt_.rebuild_output_weight;
  graph::CsrGraph g = build_pgm(points_, outputs.get(), pgm);
  clusters_ = ClusterStore(graph::lrd_decompose(g, opt_.lrd));
  ++rebuild_count_;
  refresh_seconds_ += timer.elapsed_s();
}

std::vector<double> SgmSampler::representative_isr(
    const ClusterStore::Representatives& reps,
    const std::vector<double>& rep_loss) {
  // Input graph over the representative subset's coordinates...
  Matrix sub(reps.node.size(), points_.cols());
  for (std::size_t i = 0; i < reps.node.size(); ++i)
    for (std::size_t c = 0; c < points_.cols(); ++c)
      sub(i, c) = points_(reps.node[i], c);
  graph::KnnGraphOptions kx;
  kx.k = std::min(opt_.isr_subset_k, reps.node.size() - 1);
  kx.weight = graph::KnnWeight::kInverse;
  graph::CsrGraph gx = graph::build_knn_graph(sub, kx);

  // ...output manifold = the current losses at those representatives (the
  // paper: "F(X) in this case being the NN", applied to the NN losses).
  Matrix y(reps.node.size(), 1);
  for (std::size_t i = 0; i < reps.node.size(); ++i) y(i, 0) = rep_loss[i];

  spade::IsrResult isr = spade::compute_isr(gx, y, opt_.isr);
  return isr.node_score;
}

void SgmSampler::maybe_refresh(std::uint64_t iteration,
                               const samplers::LossEvaluator& evaluate,
                               util::Rng& rng) {
  // Lines 14-18: S <- S_new every tau_G, before the same iteration's scores.
  if (schedule_.should_rebuild(iteration)) rebuild_clusters();
  if (!schedule_.should_score(iteration)) return;

  util::WallTimer timer;
  // Lines 5-6: r% representatives per cluster, score their losses.
  ClusterStore::Representatives reps =
      clusters_.sample_representatives(opt_.rep_fraction, rng);
  std::vector<double> rep_loss = evaluate(reps.node);
  loss_evaluations_ += reps.node.size();

  // Line 7 (S3): ISR on the same subset, normalized with the losses.
  std::vector<double> rep_isr;
  if (opt_.use_isr && reps.node.size() > 2) {
    rep_isr = representative_isr(reps, rep_loss);
  }

  // Lines 8-10: combine, rank, materialize the epoch.
  last_scores_ = score_clusters(clusters_, reps, rep_loss, rep_isr,
                                opt_.scorer);
  Epoch epoch = build_epoch(clusters_, last_scores_.combined, opt_.epoch, rng);
  last_epoch_size_ = epoch.indices.size();
  dealer_.set_epoch(std::move(epoch.indices), rng);
  refresh_seconds_ += timer.elapsed_s();
}

}  // namespace sgm::core
