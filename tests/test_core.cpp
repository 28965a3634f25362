// Tests for the SGM-PINN core: PGM construction, cluster bookkeeping,
// scoring, epoch building (Algorithm 1 lines 5-10), refresh scheduling and
// the assembled SgmSampler.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "core/cluster_store.hpp"
#include "core/epoch_builder.hpp"
#include "core/pgm.hpp"
#include "core/refresh_scheduler.hpp"
#include "core/scorer.hpp"
#include "core/sgm_sampler.hpp"
#include "pinn/point_cloud.hpp"
#include "util/rng.hpp"

namespace {

using sgm::core::ClusterStore;
using sgm::core::SgmOptions;
using sgm::core::SgmSampler;
using sgm::graph::Clustering;
using sgm::tensor::Matrix;

Matrix random_cloud(std::size_t n, sgm::util::Rng& rng) {
  Matrix pts(n, 2);
  for (std::size_t i = 0; i < pts.size(); ++i) pts.data()[i] = rng.uniform();
  return pts;
}

SgmOptions fast_options() {
  SgmOptions opt;
  opt.pgm.knn.k = 6;
  opt.lrd.levels = 4;
  opt.lrd.er.method = sgm::graph::ErMethod::kSmoothed;
  opt.lrd.er.num_vectors = 6;
  opt.lrd.er.smoothing_iterations = 15;
  opt.tau_e = 10;
  opt.tau_g = 50;
  opt.rep_fraction = 0.25;
  opt.epoch.epoch_fraction = 0.5;
  return opt;
}

// ----------------------------------------------------------------- PGM ----

TEST(Pgm, BuildsConnectedKnnGraph) {
  sgm::util::Rng rng(1);
  const Matrix pts = random_cloud(300, rng);
  sgm::core::PgmOptions opt;
  opt.knn.k = 8;
  auto g = sgm::core::build_pgm(pts, nullptr, opt);
  EXPECT_EQ(g.num_nodes(), 300u);
  EXPECT_TRUE(g.is_connected());
}

TEST(Pgm, OutputFeaturesChangeTopology) {
  // Two spatially mixed populations with wildly different outputs should
  // separate when outputs join the metric.
  sgm::util::Rng rng(3);
  const std::size_t n = 200;
  const Matrix pts = random_cloud(n, rng);
  Matrix outputs(n, 1);
  for (std::size_t i = 0; i < n; ++i) outputs(i, 0) = (i % 2) ? 100.0 : -100.0;
  sgm::core::PgmOptions opt;
  opt.knn.k = 4;
  auto g_spatial = sgm::core::build_pgm(pts, nullptr, opt);
  opt.output_feature_weight = 5.0;
  auto g_output = sgm::core::build_pgm(pts, &outputs, opt);
  // Count parity-crossing edges: with output features they should shrink.
  auto crossings = [](const sgm::graph::CsrGraph& g) {
    std::size_t c = 0;
    for (const auto& e : g.edges())
      if ((e.u % 2) != (e.v % 2)) ++c;
    return c;
  };
  EXPECT_LT(crossings(g_output), crossings(g_spatial) / 4 + 1);
}

TEST(Pgm, StandardizeColumnsZeroMeanUnitVar) {
  Matrix m{{1, 10}, {2, 20}, {3, 30}, {4, 40}};
  const Matrix s = sgm::core::standardize_columns(m);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0, var = 0;
    for (std::size_t r = 0; r < 4; ++r) mean += s(r, c);
    mean /= 4;
    for (std::size_t r = 0; r < 4; ++r) var += s(r, c) * s(r, c);
    var /= 4;
    EXPECT_NEAR(mean, 0.0, 1e-12);
    EXPECT_NEAR(var, 1.0, 1e-12);
  }
}

// --------------------------------------------------------- ClusterStore ----

Clustering tiny_clustering() {
  Clustering c;
  c.node_cluster = {0, 0, 0, 1, 1, 2, 2, 2, 2, 2};
  c.num_clusters = 3;
  c.cluster_diameter = {0.1, 0.2, 0.3};
  return c;
}

TEST(ClusterStore, MembersAndSizes) {
  ClusterStore store(tiny_clustering());
  EXPECT_EQ(store.num_clusters(), 3u);
  EXPECT_EQ(store.size(0), 3u);
  EXPECT_EQ(store.size(2), 5u);
  EXPECT_EQ(store.cluster_of(4), 1u);
  EXPECT_EQ(store.members(1).size(), 2u);
}

TEST(ClusterStore, RepresentativesRespectFractionAndFloor) {
  ClusterStore store(tiny_clustering());
  sgm::util::Rng rng(4);
  auto reps = store.sample_representatives(0.4, rng);
  // ceil(0.4*3)=2, ceil(0.4*2)=1, ceil(0.4*5)=2 => 5 reps.
  EXPECT_EQ(reps.node.size(), 5u);
  std::map<std::uint32_t, int> per_cluster;
  for (std::size_t i = 0; i < reps.node.size(); ++i) {
    ++per_cluster[reps.cluster[i]];
    EXPECT_EQ(store.cluster_of(reps.node[i]), reps.cluster[i]);
  }
  EXPECT_EQ(per_cluster[0], 2);
  EXPECT_EQ(per_cluster[1], 1);
  EXPECT_EQ(per_cluster[2], 2);
  // Tiny fraction still yields one per cluster (the floor).
  auto reps2 = store.sample_representatives(0.01, rng);
  EXPECT_EQ(reps2.node.size(), 3u);
}

TEST(ClusterStore, RepresentativesAreDistinctWithinCluster) {
  ClusterStore store(tiny_clustering());
  sgm::util::Rng rng(5);
  auto reps = store.sample_representatives(1.0, rng);
  std::set<std::uint32_t> uniq(reps.node.begin(), reps.node.end());
  EXPECT_EQ(uniq.size(), 10u);
}

// ---------------------------------------------------------------- Scorer --

TEST(Scorer, LossOnlyNormalizedToMeanOne) {
  ClusterStore store(tiny_clustering());
  sgm::util::Rng rng(6);
  auto reps = store.sample_representatives(1.0, rng);
  std::vector<double> loss(reps.node.size());
  for (std::size_t i = 0; i < reps.node.size(); ++i)
    loss[i] = reps.cluster[i] == 2 ? 8.0 : 1.0;  // cluster 2 is hot
  auto scores =
      sgm::core::score_clusters(store, reps, loss, {}, {});
  EXPECT_GT(scores.combined[2], scores.combined[0]);
  const double mean = (scores.combined[0] + scores.combined[1] +
                       scores.combined[2]) /
                      3.0;
  EXPECT_NEAR(mean, 1.0, 0.35);
}

TEST(Scorer, IsrTermRaisesUnstableCluster) {
  ClusterStore store(tiny_clustering());
  sgm::util::Rng rng(7);
  auto reps = store.sample_representatives(1.0, rng);
  std::vector<double> loss(reps.node.size(), 1.0);  // flat losses
  std::vector<double> isr(reps.node.size());
  for (std::size_t i = 0; i < reps.node.size(); ++i)
    isr[i] = reps.cluster[i] == 1 ? 10.0 : 0.1;
  sgm::core::ScorerOptions opt;
  opt.isr_weight = 1.0;
  auto with_isr = sgm::core::score_clusters(store, reps, loss, isr, opt);
  auto without = sgm::core::score_clusters(store, reps, loss, {}, opt);
  EXPECT_GT(with_isr.combined[1], with_isr.combined[0]);
  EXPECT_NEAR(without.combined[1], without.combined[0], 1e-9);
}

TEST(Scorer, UnseenClusterGetsNeutralScore) {
  ClusterStore store(tiny_clustering());
  // Handcraft reps that skip cluster 1 entirely.
  ClusterStore::Representatives reps;
  reps.node = {0, 5};
  reps.cluster = {0, 2};
  auto scores = sgm::core::score_clusters(store, reps, {2.0, 2.0}, {}, {});
  EXPECT_DOUBLE_EQ(scores.combined[1], 1.0);
}

TEST(Scorer, SizeMismatchThrows) {
  ClusterStore store(tiny_clustering());
  ClusterStore::Representatives reps;
  reps.node = {0, 5};
  reps.cluster = {0, 2};
  EXPECT_THROW(sgm::core::score_clusters(store, reps, {1.0}, {}, {}),
               std::invalid_argument);
}

// ----------------------------------------------------------- EpochBuilder --

TEST(EpochBuilder, FloorOfOnePerCluster) {
  ClusterStore store(tiny_clustering());
  sgm::util::Rng rng(8);
  sgm::core::EpochBuilderOptions opt;
  opt.epoch_fraction = 0.3;  // tiny epoch
  opt.ratio_min = 0.01;
  opt.ratio_max = 10.0;
  // Give cluster 0 all the mass; clusters 1 and 2 must still appear.
  auto epoch =
      sgm::core::build_epoch(store, {100.0, 0.0, 0.0}, opt, rng);
  EXPECT_GE(epoch.per_cluster[1], 1u);
  EXPECT_GE(epoch.per_cluster[2], 1u);
}

TEST(EpochBuilder, HigherScoreMoreSamples) {
  // Two equal-size clusters, one hot.
  Clustering c;
  c.num_clusters = 2;
  c.node_cluster.resize(200);
  for (std::size_t i = 0; i < 200; ++i) c.node_cluster[i] = i < 100 ? 0 : 1;
  c.cluster_diameter = {0, 0};
  ClusterStore store(std::move(c));
  sgm::util::Rng rng(9);
  sgm::core::EpochBuilderOptions opt;
  opt.epoch_fraction = 0.4;
  auto epoch = sgm::core::build_epoch(store, {5.0, 1.0}, opt, rng);
  EXPECT_GT(epoch.per_cluster[0], 2 * epoch.per_cluster[1]);
}

TEST(EpochBuilder, EpochSizeNearTarget) {
  Clustering c;
  c.num_clusters = 10;
  c.node_cluster.resize(1000);
  for (std::size_t i = 0; i < 1000; ++i)
    c.node_cluster[i] = static_cast<std::uint32_t>(i / 100);
  c.cluster_diameter.assign(10, 0.0);
  ClusterStore store(std::move(c));
  sgm::util::Rng rng(10);
  std::vector<double> scores(10);
  for (int i = 0; i < 10; ++i) scores[i] = 1.0 + 0.1 * i;
  sgm::core::EpochBuilderOptions opt;
  opt.epoch_fraction = 0.25;
  auto epoch = sgm::core::build_epoch(store, scores, opt, rng);
  EXPECT_NEAR(static_cast<double>(epoch.indices.size()), 250.0, 30.0);
}

TEST(EpochBuilder, BudgetExactUnderClampPressure) {
  // 60 tiny clusters that all pin at the floor of 1 plus one big cluster:
  // without residual redistribution the floor contributions inflate the
  // epoch well past epoch_fraction * n.
  Clustering c;
  c.num_clusters = 61;
  c.node_cluster.resize(1000);
  for (std::size_t i = 0; i < 120; ++i)
    c.node_cluster[i] = static_cast<std::uint32_t>(i / 2);  // sizes 2
  for (std::size_t i = 120; i < 1000; ++i) c.node_cluster[i] = 60;
  c.cluster_diameter.assign(61, 0.0);
  ClusterStore store(std::move(c));
  sgm::util::Rng rng(30);
  std::vector<double> scores(61, 0.1);
  scores[60] = 10.0;  // the big cluster carries nearly all the mass
  sgm::core::EpochBuilderOptions opt;
  opt.epoch_fraction = 0.1;  // target 100 of 1000
  auto epoch = sgm::core::build_epoch(store, scores, opt, rng);
  EXPECT_EQ(epoch.indices.size(), 100u);
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < epoch.per_cluster.size(); ++k) {
    EXPECT_GE(epoch.per_cluster[k], 1u);
    EXPECT_LE(epoch.per_cluster[k], store.size(static_cast<std::uint32_t>(k)));
    total += epoch.per_cluster[k];
  }
  EXPECT_EQ(total, 100u);
}

TEST(EpochBuilder, BudgetClampedToClusterCountAndUniverse) {
  ClusterStore store(tiny_clustering());  // 10 nodes, 3 clusters
  sgm::util::Rng rng(31);
  sgm::core::EpochBuilderOptions opt;
  // Target below the per-cluster floor: realized size is the cluster count.
  opt.epoch_fraction = 0.01;
  auto tiny = sgm::core::build_epoch(store, {1.0, 1.0, 1.0}, opt, rng);
  EXPECT_EQ(tiny.indices.size(), 3u);
  // Target above the universe: realized size is n.
  opt.epoch_fraction = 3.0;
  auto full = sgm::core::build_epoch(store, {1.0, 1.0, 1.0}, opt, rng);
  EXPECT_EQ(full.indices.size(), 10u);
}

TEST(EpochBuilder, NoDuplicateWithinCluster) {
  ClusterStore store(tiny_clustering());
  sgm::util::Rng rng(11);
  sgm::core::EpochBuilderOptions opt;
  opt.epoch_fraction = 1.0;  // ask for everything
  auto epoch = sgm::core::build_epoch(store, {1.0, 1.0, 1.0}, opt, rng);
  std::set<std::uint32_t> uniq(epoch.indices.begin(), epoch.indices.end());
  EXPECT_EQ(uniq.size(), epoch.indices.size());
}

// ------------------------------------------------------ RefreshScheduler --

TEST(RefreshScheduler, TauESchedule) {
  sgm::core::RefreshScheduler sched(7, 25);
  EXPECT_TRUE(sched.should_score(0));
  EXPECT_FALSE(sched.should_score(3));
  EXPECT_FALSE(sched.should_score(6));
  EXPECT_TRUE(sched.should_score(7));
  EXPECT_FALSE(sched.should_score(13));
  EXPECT_TRUE(sched.should_score(14));
}

TEST(RefreshScheduler, TauGScheduleSkipsZero) {
  sgm::core::RefreshScheduler sched(7, 25);
  EXPECT_FALSE(sched.should_rebuild(0));
  EXPECT_FALSE(sched.should_rebuild(24));
  EXPECT_TRUE(sched.should_rebuild(25));
  EXPECT_FALSE(sched.should_rebuild(49));
  EXPECT_TRUE(sched.should_rebuild(50));
}

TEST(RefreshScheduler, DisabledRebuild) {
  sgm::core::RefreshScheduler sched(5, 0);
  EXPECT_FALSE(sched.should_rebuild(1000));
}

// ----------------------------------------------------------- SgmSampler ---

TEST(SgmSampler, InitialEpochIsFullUniverse) {
  sgm::util::Rng rng(12);
  const Matrix pts = random_cloud(200, rng);
  SgmSampler s(pts, fast_options());
  EXPECT_GT(s.clusters().num_clusters(), 1u);
  auto batch = s.next_batch(64, rng);
  EXPECT_EQ(batch.size(), 64u);
  for (auto i : batch) EXPECT_LT(i, 200u);
}

TEST(SgmSampler, RefreshBuildsBiasedEpoch) {
  sgm::util::Rng rng(13);
  const Matrix pts = random_cloud(400, rng);
  SgmOptions opt = fast_options();
  opt.epoch.epoch_fraction = 0.25;
  SgmSampler s(pts, opt);
  // Loss concentrated in the lower-left quadrant.
  auto eval = [&](const std::vector<std::uint32_t>& rows) {
    std::vector<double> loss(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const bool hot = pts(rows[i], 0) < 0.5 && pts(rows[i], 1) < 0.5;
      loss[i] = hot ? 10.0 : 0.1;
    }
    return loss;
  };
  s.maybe_refresh(0, eval, rng);
  EXPECT_GT(s.last_epoch_size(), 0u);
  EXPECT_GT(s.loss_evaluations(), 0u);

  // Sample many batches; the hot quadrant (25% of area) should receive
  // clearly more than its uniform share.
  std::size_t hot = 0, total = 0;
  for (int b = 0; b < 50; ++b) {
    for (auto i : s.next_batch(32, rng)) {
      hot += (pts(i, 0) < 0.5 && pts(i, 1) < 0.5);
      ++total;
    }
  }
  const double share = static_cast<double>(hot) / total;
  EXPECT_GT(share, 0.35) << "hot share " << share;
}

TEST(SgmSampler, EveryClusterRepresentedInEpoch) {
  sgm::util::Rng rng(14);
  const Matrix pts = random_cloud(300, rng);
  SgmOptions opt = fast_options();
  opt.epoch.epoch_fraction = 0.1;
  SgmSampler s(pts, opt);
  auto eval = [](const std::vector<std::uint32_t>& rows) {
    return std::vector<double>(rows.size(), 1.0);
  };
  s.maybe_refresh(0, eval, rng);
  // Drain several epochs worth of batches and verify cluster coverage.
  std::set<std::uint32_t> seen_clusters;
  for (int b = 0; b < 80; ++b)
    for (auto i : s.next_batch(16, rng))
      seen_clusters.insert(s.clusters().cluster_of(i));
  EXPECT_EQ(seen_clusters.size(), s.clusters().num_clusters());
}

TEST(SgmSampler, TauGRebuildHappens) {
  sgm::util::Rng rng(15);
  const Matrix pts = random_cloud(150, rng);
  SgmOptions opt = fast_options();
  opt.tau_e = 5;
  opt.tau_g = 20;
  SgmSampler s(pts, opt);
  auto eval = [](const std::vector<std::uint32_t>& rows) {
    return std::vector<double>(rows.size(), 1.0);
  };
  for (std::uint64_t it = 0; it < 45; ++it) s.maybe_refresh(it, eval, rng);
  EXPECT_EQ(s.rebuild_count(), 2u);  // at 20 and 40
}

TEST(SgmSampler, IsrModeRuns) {
  sgm::util::Rng rng(16);
  const Matrix pts = random_cloud(250, rng);
  SgmOptions opt = fast_options();
  opt.use_isr = true;
  opt.isr.rank = 4;
  opt.isr.subspace_iterations = 3;
  SgmSampler s(pts, opt);
  EXPECT_EQ(s.name(), "sgm-s");
  auto eval = [&](const std::vector<std::uint32_t>& rows) {
    std::vector<double> loss(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
      loss[i] = std::exp(3.0 * pts(rows[i], 0));
    return loss;
  };
  s.maybe_refresh(0, eval, rng);
  EXPECT_FALSE(s.last_scores().mean_isr.empty());
  auto batch = s.next_batch(32, rng);
  EXPECT_EQ(batch.size(), 32u);
}

TEST(SgmSampler, ProviderEvaluationChargedToRefreshSeconds) {
  // An output-weighted tau_G rebuild evaluates the outputs provider over
  // every point on the training thread; that time is sampler cost and must
  // show up in refresh_seconds().
  sgm::util::Rng rng(19);
  const Matrix pts = random_cloud(150, rng);
  SgmOptions opt = fast_options();
  opt.tau_g = 5;
  opt.tau_e = 1000;  // one score refresh at it=0, then only the rebuild
  opt.rebuild_output_weight = 1.0;
  SgmSampler s(pts, opt);
  const double baseline = s.refresh_seconds();
  s.set_outputs_provider([&](const std::vector<std::uint32_t>& rows) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    Matrix out(rows.size(), 1);
    for (std::size_t i = 0; i < rows.size(); ++i)
      out(i, 0) = pts(rows[i], 0);
    return out;
  });
  auto eval = [](const std::vector<std::uint32_t>& rows) {
    return std::vector<double>(rows.size(), 1.0);
  };
  for (std::uint64_t it = 0; it < 6; ++it) s.maybe_refresh(it, eval, rng);
  EXPECT_EQ(s.rebuild_count(), 1u);
  // sleep_for's lower bound is guaranteed, so >= 20ms is deterministic.
  EXPECT_GE(s.refresh_seconds() - baseline, 0.020);
}

// A tau_G rebuild's clustering is a function of its inputs: the points, the
// options and, when output-weighted, the provider's outputs. With a purely
// spatial metric it reproduces the construction-time clustering bit for
// bit, at any thread count; with output features it moves.
std::vector<sgm::graph::NodeId> clustering_after_rebuild(
    const Matrix& pts, std::size_t threads, const Matrix* outputs) {
  SgmOptions opt = fast_options();
  opt.tau_e = 1000;
  opt.tau_g = 5;
  opt.num_threads = threads;
  opt.rebuild_output_weight = outputs ? 1.0 : 0.0;
  SgmSampler s(pts, opt);
  if (outputs)
    s.set_outputs_provider([outputs](const std::vector<std::uint32_t>& rows) {
      return sgm::pinn::gather_rows(*outputs, rows);
    });
  const std::vector<sgm::graph::NodeId> initial =
      s.clusters().clustering().node_cluster;
  auto eval = [](const std::vector<std::uint32_t>& rows) {
    return std::vector<double>(rows.size(), 1.0);
  };
  sgm::util::Rng rng(21);
  for (std::uint64_t it = 0; it < 6; ++it) s.maybe_refresh(it, eval, rng);
  EXPECT_EQ(s.rebuild_count(), 1u);
  if (outputs) {
    EXPECT_NE(s.clusters().clustering().node_cluster, initial)
        << "output-weighted rebuild at " << threads << " threads";
  } else {
    EXPECT_EQ(s.clusters().clustering().node_cluster, initial)
        << "spatial rebuild at " << threads << " threads";
  }
  return s.clusters().clustering().node_cluster;
}

TEST(SgmSampler, SpatialRebuildReproducesTheClustering) {
  sgm::util::Rng rng(20);
  const Matrix pts = random_cloud(300, rng);
  const auto one = clustering_after_rebuild(pts, 1, nullptr);
  const auto four = clustering_after_rebuild(pts, 4, nullptr);
  EXPECT_EQ(one, four);
}

TEST(SgmSampler, OutputWeightedRebuildFoldsOutputsIn) {
  sgm::util::Rng rng(22);
  const Matrix pts = random_cloud(300, rng);
  Matrix outputs(pts.rows(), 1);
  for (std::size_t r = 0; r < pts.rows(); ++r)
    outputs(r, 0) = std::sin(12.0 * pts(r, 0));
  const auto one = clustering_after_rebuild(pts, 1, &outputs);
  const auto four = clustering_after_rebuild(pts, 4, &outputs);
  EXPECT_EQ(one, four);
}

}  // namespace
