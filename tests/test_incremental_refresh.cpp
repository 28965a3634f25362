// Equivalence / property harness for the incremental refresh engine
// (core/incremental_refresh + graph/incremental_knn + IncrementalErEngine).
//
// The central property: with dirty_tolerance = 0, an engine taking the
// incremental path is EQUIVALENT to an engine forced onto the full-rebuild
// path every refresh (incremental_threshold < 0), fed the same output
// stream —
//   * identical kNN edges after symmetrize (bitwise, including weights);
//   * identical ER embedding (bit-for-bit: the localized Richardson sweep
//     commits only the region the full recompute could have changed);
//   * identical clustering and sampler distributions for a fixed seed.
// swept across dirty fractions {0%, 1%, 10%, 50%, 100%} — straddling the
// fallback threshold so both the incremental and full-fallback paths are
// exercised.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core/cluster_store.hpp"
#include "core/dirty_tracker.hpp"
#include "core/epoch_builder.hpp"
#include "core/incremental_refresh.hpp"
#include "graph/effective_resistance.hpp"
#include "graph/incremental_knn.hpp"
#include "graph/knn.hpp"
#include "util/rng.hpp"

namespace {

using sgm::core::DirtyTracker;
using sgm::core::IncrementalRefreshEngine;
using sgm::core::IncrementalRefreshOptions;
using sgm::core::RefreshStats;
using sgm::graph::CsrGraph;
using sgm::graph::ErMethod;
using sgm::graph::ErOptions;
using sgm::graph::IncrementalErEngine;
using sgm::tensor::Matrix;

Matrix random_points(std::size_t n, std::size_t d, sgm::util::Rng& rng) {
  Matrix m(n, d);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform();
  return m;
}

/// Smooth base output field over the points (one column).
Matrix base_outputs(const Matrix& pts) {
  Matrix out(pts.rows(), 1);
  for (std::size_t i = 0; i < pts.rows(); ++i)
    out(i, 0) = std::sin(3.0 * pts(i, 0)) + 0.5 * std::cos(5.0 * pts(i, 1));
  return out;
}

/// Perturbs exactly `fraction` of the points (seeded choice, alternating
/// sign so the column std stays pinned) on top of `prev`.
Matrix evolve_outputs(const Matrix& prev, double fraction, int round,
                      std::uint64_t seed) {
  Matrix out = prev;
  const auto n = static_cast<std::uint32_t>(prev.rows());
  const auto want = static_cast<std::uint32_t>(
      std::llround(fraction * static_cast<double>(n)));
  if (want == 0) return out;
  sgm::util::Rng rng(seed + static_cast<std::uint64_t>(round));
  std::vector<std::uint32_t> ids = rng.sample_without_replacement(n, want);
  for (std::uint32_t id : ids) {
    const double sign = (id % 2 == 0) ? 1.0 : -1.0;
    out(id, 0) += sign * (0.35 + 0.03 * round);
  }
  return out;
}

IncrementalRefreshOptions engine_options(double threshold,
                                         std::size_t threads) {
  IncrementalRefreshOptions opt;
  opt.pgm.knn.k = 8;
  opt.pgm.output_feature_weight = 0.6;
  opt.lrd.levels = 5;
  opt.lrd.er.method = ErMethod::kSmoothed;
  opt.lrd.er.num_vectors = 8;
  opt.lrd.er.smoothing_iterations = 20;
  opt.dirty_tolerance = 0.0;
  opt.incremental_threshold = threshold;
  opt.num_threads = threads;
  return opt;
}

void expect_identical_graphs(const CsrGraph& a, const CsrGraph& b,
                             const std::string& label) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << label;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << label;
  for (sgm::graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u) << label << " edge " << e;
    EXPECT_EQ(a.edge(e).v, b.edge(e).v) << label << " edge " << e;
    EXPECT_EQ(a.edge(e).w, b.edge(e).w) << label << " edge " << e;
  }
}

void expect_identical_clustering(const sgm::graph::Clustering& a,
                                 const sgm::graph::Clustering& b,
                                 const std::string& label) {
  EXPECT_EQ(a.num_clusters, b.num_clusters) << label;
  EXPECT_EQ(a.node_cluster, b.node_cluster) << label;
}

/// Same sampler-facing behavior: representatives and epochs drawn with the
/// same seed must coincide.
void expect_identical_distributions(const sgm::graph::Clustering& a,
                                    const sgm::graph::Clustering& b,
                                    const std::string& label) {
  sgm::core::ClusterStore sa(a), sb(b);
  sgm::util::Rng ra(777), rb(777);
  const auto reps_a = sa.sample_representatives(0.2, ra);
  const auto reps_b = sb.sample_representatives(0.2, rb);
  EXPECT_EQ(reps_a.node, reps_b.node) << label;
  EXPECT_EQ(reps_a.cluster, reps_b.cluster) << label;
  std::vector<double> scores_a(sa.num_clusters());
  for (std::size_t c = 0; c < scores_a.size(); ++c)
    scores_a[c] = 1.0 + 0.1 * static_cast<double>(c % 7);
  sgm::util::Rng ea(888), eb(888);
  const auto epoch_a =
      sgm::core::build_epoch(sa, scores_a, {}, ea);
  const auto epoch_b =
      sgm::core::build_epoch(sb, scores_a, {}, eb);
  EXPECT_EQ(epoch_a.indices, epoch_b.indices) << label;
}

// -------------------------------------------------- kd-exact equivalence --

class KdEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(KdEquivalence, IncrementalMatchesFullRebuild) {
  const double fraction = GetParam();
  const std::size_t n = 700;
  sgm::util::Rng rng(91);
  const Matrix pts = random_points(n, 2, rng);

  // Production threshold: 1% / 10% take the incremental path, 50% / 100%
  // the fallback; the baseline engine (threshold < 0) always rebuilds.
  IncrementalRefreshEngine inc(pts, engine_options(0.30, 1));
  IncrementalRefreshEngine full(pts, engine_options(-1.0, 1));

  Matrix out = base_outputs(pts);
  auto c_inc = inc.refresh(&out);
  auto c_full = full.refresh(&out);
  expect_identical_graphs(inc.graph(), full.graph(), "initial");
  expect_identical_clustering(c_inc, c_full, "initial");

  for (int round = 1; round <= 3; ++round) {
    out = evolve_outputs(out, fraction, round, 1234);
    RefreshStats si, sf;
    c_inc = inc.refresh(&out, &si);
    c_full = full.refresh(&out, &sf);
    const std::string label = "round " + std::to_string(round) + " frac " +
                              std::to_string(fraction);

    EXPECT_TRUE(sf.full_rebuild) << label;
    if (fraction > 0.0 && fraction <= 0.30 && !si.repinned) {
      EXPECT_FALSE(si.full_rebuild)
          << label << ": expected the incremental path";
      EXPECT_EQ(si.dirty_points,
                static_cast<std::size_t>(std::llround(fraction * n)))
          << label;
      EXPECT_GE(si.requeried_points, si.dirty_points) << label;
    }
    if (fraction > 0.30) {
      EXPECT_TRUE(si.full_rebuild) << label;
    }

    expect_identical_graphs(inc.graph(), full.graph(), label);

    // Canonical smoothing is bit-identical between the paths...
    ASSERT_EQ(inc.embedding().rows(), full.embedding().rows()) << label;
    ASSERT_EQ(inc.embedding().cols(), full.embedding().cols()) << label;
    for (std::size_t i = 0; i < inc.embedding().size(); ++i)
      ASSERT_EQ(inc.embedding().data()[i], full.embedding().data()[i])
          << label << " embedding entry " << i;
    // ...hence so are the clustering and everything the sampler sees.
    expect_identical_clustering(c_inc, c_full, label);
    expect_identical_distributions(c_inc, c_full, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KdEquivalence,
                         ::testing::Values(0.0, 0.01, 0.10, 0.50, 1.0));

// ------------------------------------------------- thread invariance ------

TEST(IncrementalRefresh, ByteIdenticalAtOneAndFourThreads) {
  const std::size_t n = 600;
  sgm::util::Rng rng(17);
  const Matrix pts = random_points(n, 2, rng);
  auto run = [&](std::size_t threads) {
    IncrementalRefreshEngine eng(pts, engine_options(0.30, threads));
    Matrix out = base_outputs(pts);
    eng.refresh(&out);
    std::vector<sgm::graph::Clustering> results;
    for (int round = 1; round <= 3; ++round) {
      out = evolve_outputs(out, 0.08, round, 555);
      results.push_back(eng.refresh(&out));
    }
    return std::make_pair(results, eng.embedding());
  };
  const auto [c1, z1] = run(1);
  const auto [c4, z4] = run(4);
  ASSERT_EQ(c1.size(), c4.size());
  for (std::size_t r = 0; r < c1.size(); ++r)
    expect_identical_clustering(c1[r], c4[r],
                                "threads round " + std::to_string(r));
  ASSERT_EQ(z1.size(), z4.size());
  for (std::size_t i = 0; i < z1.size(); ++i)
    ASSERT_EQ(z1.data()[i], z4.data()[i]) << "embedding entry " << i;
}

// ---------------------------------------------- sub-threshold deferral ----

TEST(IncrementalRefresh, SubToleranceDriftIsDeferredUntilItAccumulates) {
  const std::size_t n = 300;
  sgm::util::Rng rng(31);
  const Matrix pts = random_points(n, 2, rng);
  auto opt = engine_options(0.9, 1);
  opt.dirty_tolerance = 0.05;  // relative to the output feature scale
  IncrementalRefreshEngine eng(pts, opt);
  Matrix out = base_outputs(pts);
  eng.refresh(&out);

  // A wiggle far below tolerance: refresh is a no-op...
  Matrix wiggled = out;
  for (std::size_t i = 0; i < n; ++i) wiggled(i, 0) += 1e-6;
  RefreshStats st;
  eng.refresh(&wiggled, &st);
  EXPECT_EQ(st.dirty_points, 0u);
  EXPECT_FALSE(st.full_rebuild);

  // ...but the drift is measured against the APPLIED reference, so pushing
  // the same points further eventually crosses the threshold.
  for (std::size_t i = 0; i < n; ++i) wiggled(i, 0) += 0.5;
  eng.refresh(&wiggled, &st);
  EXPECT_GT(st.dirty_points, 0u);
}

// ------------------------------------------------ stale-ER amortization ---

TEST(IncrementalRefresh, StaleErReusesEmbeddingThenResyncsExactly) {
  const std::size_t n = 500;
  sgm::util::Rng rng(37);
  const Matrix pts = random_points(n, 2, rng);
  auto opt = engine_options(0.9, 1);
  opt.er_stale_ratio = 0.30;
  IncrementalRefreshEngine eng(pts, opt);
  auto strict_opt = opt;
  strict_opt.er_stale_ratio = 0.0;  // resyncs every refresh
  IncrementalRefreshEngine strict(pts, strict_opt);
  Matrix out = base_outputs(pts);
  eng.refresh(&out);
  strict.refresh(&out);
  const CsrGraph g_sync = eng.graph();  // embedding's sync snapshot

  // Small rounds bank changed edges below the ratio: the embedding must be
  // reused bit-for-bit (that is the whole point — no solves happen).
  Matrix z_before = eng.embedding();
  RefreshStats st;
  int round = 0;
  bool saw_stale = false;
  while (round < 20) {
    ++round;
    out = evolve_outputs(out, 0.02, round, 4321);
    eng.refresh(&out, &st);
    strict.refresh(&out);
    if (st.er_resynced) break;
    ASSERT_TRUE(st.er_reused_stale || st.dirty_points == 0) << round;
    saw_stale = true;
    ASSERT_EQ(eng.embedding().size(), z_before.size());
    for (std::size_t i = 0; i < z_before.size(); ++i)
      ASSERT_EQ(eng.embedding().data()[i], z_before.data()[i])
          << "round " << round << " entry " << i
          << ": stale reuse must not touch the embedding";
  }
  ASSERT_TRUE(saw_stale) << "ratio never let a refresh reuse the embedding";
  ASSERT_TRUE(st.er_resynced) << "banked changes never crossed the ratio";

  // The resync must land exactly where a reference engine driven with the
  // same sync-point schedule lands: rebuild on the old snapshot, one update
  // against the accumulated diff. (Same pinned-step history by
  // construction, so the comparison is bitwise.)
  const CsrGraph& g_now = eng.graph();
  std::set<std::tuple<sgm::graph::NodeId, sgm::graph::NodeId, double>> s1, s2;
  for (const auto& e : g_sync.edges()) s1.insert({e.u, e.v, e.w});
  for (const auto& e : g_now.edges()) s2.insert({e.u, e.v, e.w});
  std::set<sgm::graph::NodeId> nodes;
  for (const auto& e : s1)
    if (!s2.count(e)) {
      nodes.insert(std::get<0>(e));
      nodes.insert(std::get<1>(e));
    }
  for (const auto& e : s2)
    if (!s1.count(e)) {
      nodes.insert(std::get<0>(e));
      nodes.insert(std::get<1>(e));
    }
  IncrementalErEngine ref(opt.lrd.er);
  ref.rebuild(g_sync);
  ref.update(g_now, g_sync,
             std::vector<sgm::graph::NodeId>(nodes.begin(), nodes.end()));
  ASSERT_EQ(eng.embedding().size(), ref.embedding().size());
  for (std::size_t i = 0; i < ref.embedding().size(); ++i)
    ASSERT_EQ(eng.embedding().data()[i], ref.embedding().data()[i])
        << "resync entry " << i;

  // ...and, equivalently, on a never-stale core engine fed the same
  // stream. This holds for arbitrary streams because a max-degree growth
  // on any round forces the stale engine to resync (degree-unpin rule), so
  // the two pin histories can never diverge.
  ASSERT_EQ(eng.embedding().size(), strict.embedding().size());
  for (std::size_t i = 0; i < strict.embedding().size(); ++i)
    ASSERT_EQ(eng.embedding().data()[i], strict.embedding().data()[i])
        << "strict-engine resync entry " << i;
}

// ------------------------------------------------------ DirtyTracker ------

TEST(DirtyTracker, DiffRebaseAndScales) {
  Matrix ref(4, 2);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ref.data()[i] = static_cast<double>(i);
  DirtyTracker t(4, 2, 0.5);
  t.set_scales({1.0, 10.0});
  t.rebase_all(ref);
  EXPECT_TRUE(t.diff(ref).empty());

  Matrix cand = ref;
  cand(1, 0) += 0.6;  // > 0.5 * 1.0 => dirty
  cand(2, 1) += 3.0;  // < 0.5 * 10  => clean
  const auto dirty = t.diff(cand);
  EXPECT_EQ(dirty, (std::vector<std::uint32_t>{1}));

  Matrix row(1, 2);
  row(0, 0) = cand(1, 0);
  row(0, 1) = cand(1, 1);
  t.rebase_rows({1}, row);
  EXPECT_TRUE(t.diff(cand).empty());
}

TEST(DirtyTracker, ZeroToleranceFlagsAnyBitwiseChange) {
  Matrix ref(3, 1);
  DirtyTracker t(3, 1, 0.0);
  t.rebase_all(ref);
  Matrix cand = ref;
  cand(2, 0) = 1e-300;
  EXPECT_EQ(t.diff(cand), (std::vector<std::uint32_t>{2}));
}

TEST(DirtyTracker, RelativeToReferenceModeScalesWithTheSignal) {
  // The sampler's loss signal uses reference-relative drift: a 30% move is
  // dirty whether the loss is O(10) or O(1e-3).
  DirtyTracker t(4, 1, 0.25);
  t.set_relative_to_reference();
  t.observe({0, 1, 2, 3}, {10.0, 1e-3, 10.0, 1e-3});
  t.observe({0, 1}, {13.0, 1.3e-3});  // +30% of reference => dirty
  EXPECT_TRUE(t.is_dirty(0));
  EXPECT_TRUE(t.is_dirty(1));
  t.observe({2, 3}, {11.0, 1.1e-3});  // +10% => clean
  EXPECT_FALSE(t.is_dirty(2));
  EXPECT_FALSE(t.is_dirty(3));
}

TEST(DirtyTracker, StreamObservationDrivesDirtyFraction) {
  DirtyTracker t(10, 1, 0.25);
  // First sight sets references; nothing is dirty yet.
  t.observe({0, 1, 2, 3}, {1.0, 1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(t.dirty_fraction(), 0.0);
  // Two of four observed points drift beyond 25%.
  t.observe({0, 1}, {1.5, 1.1});
  EXPECT_TRUE(t.is_dirty(0));
  EXPECT_FALSE(t.is_dirty(1));
  t.observe({2}, {2.0});
  EXPECT_DOUBLE_EQ(t.dirty_fraction(), 0.5);  // 2 of 4 observed
  // A rebuild absorbs the drift.
  t.settle();
  EXPECT_DOUBLE_EQ(t.dirty_fraction(), 0.0);
  t.observe({0}, {1.5});  // settled reference is the last observed value
  EXPECT_FALSE(t.is_dirty(0));
}

// -------------------------------------- localized smoothed-ER updates ----

TEST(IncrementalEr, LocalizedSmoothedUpdateIsBitwiseExact) {
  // A long path graph: diameter >> 2 * smoothing_iterations, so a single
  // re-weighted edge's influence region is a genuine sub-ball and the
  // localized sweep path runs (instead of the all-columns fallback).
  const std::size_t n = 1500;
  std::vector<sgm::graph::Edge> edges;
  for (std::size_t i = 0; i + 1 < n; ++i)
    edges.push_back({static_cast<sgm::graph::NodeId>(i),
                     static_cast<sgm::graph::NodeId>(i + 1), 1.0});
  const CsrGraph g1 = CsrGraph::from_edges(static_cast<sgm::graph::NodeId>(n),
                                           std::move(edges));
  std::vector<sgm::graph::Edge> edges2;
  for (std::size_t i = 0; i + 1 < n; ++i)
    edges2.push_back({static_cast<sgm::graph::NodeId>(i),
                      static_cast<sgm::graph::NodeId>(i + 1),
                      i == 10 ? 0.5 : 1.0});
  const CsrGraph g2 = CsrGraph::from_edges(static_cast<sgm::graph::NodeId>(n),
                                           std::move(edges2));

  ErOptions eo;
  eo.method = ErMethod::kSmoothed;
  eo.num_vectors = 6;
  eo.smoothing_iterations = 8;

  IncrementalErEngine baseline(eo);
  baseline.rebuild(g1);
  baseline.rebuild(g2);  // same pinned-step history as the incremental arm

  IncrementalErEngine inc(eo);
  inc.rebuild(g1);
  sgm::graph::ErUpdateStats st;
  inc.update(g2, g1, {10, 11}, &st);
  EXPECT_FALSE(st.full_recompute);
  EXPECT_GT(st.region_nodes, 0u);
  EXPECT_LT(st.region_nodes, n / 2);

  ASSERT_EQ(inc.embedding().size(), baseline.embedding().size());
  for (std::size_t i = 0; i < inc.embedding().size(); ++i)
    ASSERT_EQ(inc.embedding().data()[i], baseline.embedding().data()[i])
        << "entry " << i;
}

TEST(IncrementalEr, DenseRegionFallsBackToFullColumns) {
  // On a small dense cloud the 2T-hop ball covers everything: the engine
  // must recompute all columns — and still match the baseline bitwise.
  sgm::util::Rng rng(61);
  const Matrix pts = random_points(120, 2, rng);
  sgm::graph::KnnGraphOptions ko;
  ko.k = 6;
  const CsrGraph g1 = sgm::graph::build_knn_graph(pts, ko);
  Matrix pts2 = pts;
  pts2(7, 0) += 0.05;
  const CsrGraph g2 = sgm::graph::build_knn_graph(pts2, ko);

  ErOptions eo;
  eo.method = ErMethod::kSmoothed;
  eo.num_vectors = 6;
  eo.smoothing_iterations = 20;

  std::size_t changed_count = 0;
  std::vector<sgm::graph::NodeId> changed;
  {
    // Collect endpoints of differing edges the blunt way.
    std::set<std::tuple<sgm::graph::NodeId, sgm::graph::NodeId, double>> s1,
        s2;
    for (const auto& e : g1.edges()) s1.insert({e.u, e.v, e.w});
    for (const auto& e : g2.edges()) s2.insert({e.u, e.v, e.w});
    std::set<sgm::graph::NodeId> nodes;
    for (const auto& e : s1)
      if (!s2.count(e)) {
        nodes.insert(std::get<0>(e));
        nodes.insert(std::get<1>(e));
        ++changed_count;
      }
    for (const auto& e : s2)
      if (!s1.count(e)) {
        nodes.insert(std::get<0>(e));
        nodes.insert(std::get<1>(e));
        ++changed_count;
      }
    changed.assign(nodes.begin(), nodes.end());
  }
  ASSERT_GT(changed_count, 0u);

  IncrementalErEngine baseline(eo);
  baseline.rebuild(g1);
  baseline.rebuild(g2);

  IncrementalErEngine inc(eo);
  inc.rebuild(g1);
  sgm::graph::ErUpdateStats st;
  inc.update(g2, g1, changed, &st);
  EXPECT_TRUE(st.full_recompute);

  ASSERT_EQ(inc.embedding().size(), baseline.embedding().size());
  for (std::size_t i = 0; i < inc.embedding().size(); ++i)
    ASSERT_EQ(inc.embedding().data()[i], baseline.embedding().data()[i])
        << "entry " << i;
}

}  // namespace
