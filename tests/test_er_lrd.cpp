// Tests for effective-resistance estimation (exact / smoothed) and the
// LRD decomposition invariants that make SGM-PINN's clusters meaningful.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>

#include "graph/effective_resistance.hpp"
#include "graph/knn.hpp"
#include "graph/laplacian.hpp"
#include "graph/lrd.hpp"
#include "util/rng.hpp"

namespace {

using sgm::graph::Clustering;
using sgm::graph::CsrGraph;
using sgm::graph::Edge;
using sgm::graph::ErMethod;
using sgm::graph::ErOptions;
using sgm::graph::LrdOptions;
using sgm::tensor::Matrix;

CsrGraph path_graph(std::uint32_t n, double w = 1.0) {
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1, w});
  return CsrGraph::from_edges(n, std::move(edges));
}

CsrGraph grid_graph(std::uint32_t nx, std::uint32_t ny) {
  std::vector<Edge> edges;
  auto id = [nx](std::uint32_t x, std::uint32_t y) { return y * nx + x; };
  for (std::uint32_t y = 0; y < ny; ++y)
    for (std::uint32_t x = 0; x < nx; ++x) {
      if (x + 1 < nx) edges.push_back({id(x, y), id(x + 1, y), 1.0});
      if (y + 1 < ny) edges.push_back({id(x, y), id(x, y + 1), 1.0});
    }
  return CsrGraph::from_edges(nx * ny, std::move(edges));
}

CsrGraph cycle_graph(std::uint32_t n, double w = 1.0) {
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i < n; ++i) edges.push_back({i, (i + 1) % n, w});
  return CsrGraph::from_edges(n, std::move(edges));
}

CsrGraph complete_graph(std::uint32_t n, double w = 1.0) {
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) edges.push_back({i, j, w});
  return CsrGraph::from_edges(n, std::move(edges));
}

// ------------------------------------------------------ exact ER formulas --

TEST(EffectiveResistance, ExactOnPathIsAdditive) {
  // Series resistors: R(0, j) = j / w on a unit path.
  CsrGraph g = path_graph(8, 2.0);
  for (std::uint32_t j = 1; j < 8; ++j) {
    EXPECT_NEAR(sgm::graph::exact_effective_resistance(g, 0, j), j / 2.0,
                1e-8);
  }
}

TEST(EffectiveResistance, ExactOnCycleIsParallel) {
  // Cycle of n unit edges: R(u,v) over k hops = k(n-k)/n.
  const std::uint32_t n = 6;
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i < n; ++i) edges.push_back({i, (i + 1) % n, 1.0});
  CsrGraph g = CsrGraph::from_edges(n, std::move(edges));
  for (std::uint32_t k = 1; k < n; ++k) {
    EXPECT_NEAR(sgm::graph::exact_effective_resistance(g, 0, k),
                static_cast<double>(k) * (n - k) / n, 1e-8);
  }
}

TEST(EffectiveResistance, ExactEqualsFosterOnTriangle) {
  // Complete graph K3 with unit weights: R between any pair = 2/3.
  CsrGraph g =
      CsrGraph::from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}});
  EXPECT_NEAR(sgm::graph::exact_effective_resistance(g, 0, 1), 2.0 / 3.0,
              1e-9);
}

// ------------------------------------- golden values, embedding back-ends --

// Golden pairwise resistances on analytically solvable graphs, checked for
// the calibrated embedding back-end (the exact eigendecomposition, the test
// oracle) against closed forms:
//   path   : R(0, j)    = j / w            (series resistors)
//   cycle  : R(0, k)    = k (n - k) / (n w) (two parallel arcs)
//   complete Kn : R(u,v) = 2 / (n w)        (any pair)
// kExact must reproduce these to solver precision. (kSmoothed is
// rank-preserving only — it has no calibrated golden value and keeps its
// ordering test below.)

struct GoldenCase {
  const char* name;
  CsrGraph graph;
  // (u, v, expected R) triplets.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, double>> pairs;
  // Every edge of these graphs has the same analytic resistance:
  // 1/w (path bridge), (n-1)/(n w) (cycle), 2/(n w) (complete).
  double edge_resistance = 0.0;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase c{"path8_w2", path_graph(8, 2.0), {}, 1.0 / 2.0};
    for (std::uint32_t j = 1; j < 8; ++j)
      c.pairs.emplace_back(0, j, j / 2.0);
    cases.push_back(std::move(c));
  }
  {
    const std::uint32_t n = 7;
    GoldenCase c{"cycle7", cycle_graph(n), {}, (n - 1.0) / n};
    for (std::uint32_t k = 1; k < n; ++k)
      c.pairs.emplace_back(0, k, static_cast<double>(k) * (n - k) / n);
    cases.push_back(std::move(c));
  }
  {
    const std::uint32_t n = 6;
    GoldenCase c{"complete6", complete_graph(n), {}, 2.0 / n};
    for (std::uint32_t u = 0; u < n; ++u)
      for (std::uint32_t v = u + 1; v < n; ++v)
        c.pairs.emplace_back(u, v, 2.0 / n);
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(EffectiveResistance, GoldenValuesExactEmbedding) {
  for (const auto& c : golden_cases()) {
    ErOptions opt;
    opt.method = ErMethod::kExact;
    const Matrix z = sgm::graph::effective_resistance_embedding(c.graph, opt);
    for (const auto& [u, v, expected] : c.pairs) {
      EXPECT_NEAR(sgm::graph::er_from_embedding(z, u, v), expected, 1e-8)
          << c.name << " R(" << u << "," << v << ")";
    }
  }
}

TEST(EffectiveResistance, GoldenEdgeValuesExactEmbedding) {
  // Per-edge readout (what LRD consumes): every path edge is a bridge with
  // R_e = 1/w_e; every cycle edge sees (n-1)/n; every Kn edge sees 2/n.
  for (const auto& c : golden_cases()) {
    ErOptions opt;
    opt.method = ErMethod::kExact;
    const Matrix z = sgm::graph::effective_resistance_embedding(c.graph, opt);
    const auto er = sgm::graph::edge_effective_resistance(c.graph, z);
    for (sgm::graph::EdgeId e = 0; e < c.graph.num_edges(); ++e)
      EXPECT_NEAR(er[e], c.edge_resistance, 1e-8) << c.name << " edge " << e;
  }
}

TEST(EffectiveResistance, FosterSumCheck) {
  // Foster's theorem: sum over edges of w_e * R_e = n - 1 (connected graph).
  CsrGraph g = grid_graph(5, 4);
  ErOptions opt;
  opt.method = ErMethod::kExact;
  const Matrix z = sgm::graph::effective_resistance_embedding(g, opt);
  const auto er = sgm::graph::edge_effective_resistance(g, z);
  double total = 0;
  for (std::size_t e = 0; e < er.size(); ++e)
    total += g.edge(static_cast<sgm::graph::EdgeId>(e)).w * er[e];
  EXPECT_NEAR(total, g.num_nodes() - 1.0, 1e-6);
}

TEST(EffectiveResistance, SmoothedPreservesRankOrderGrossly) {
  // The smoothed estimator is only rank-preserving; verify that the known
  // extremes order correctly: a pendant edge has much higher ER than a
  // well-embedded interior edge.
  std::vector<Edge> edges;
  CsrGraph grid = grid_graph(8, 8);
  edges = grid.edges();
  const std::uint32_t pendant = 64;
  edges.push_back({0, pendant, 0.05});  // weak pendant edge: high ER
  CsrGraph g = CsrGraph::from_edges(65, std::move(edges));

  ErOptions opt;
  opt.method = ErMethod::kSmoothed;
  opt.num_vectors = 16;
  opt.smoothing_iterations = 60;
  const Matrix z = sgm::graph::effective_resistance_embedding(g, opt);
  const auto er = sgm::graph::edge_effective_resistance(g, z);

  // Find pendant edge id and an interior edge id.
  double pendant_er = -1, interior_mean = 0;
  std::size_t interior_count = 0;
  for (sgm::graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.edge(e).v == pendant) {
      pendant_er = er[e];
    } else {
      interior_mean += er[e];
      ++interior_count;
    }
  }
  interior_mean /= static_cast<double>(interior_count);
  EXPECT_GT(pendant_er, 3.0 * interior_mean);
}

// The kSmoothed estimator one column at a time, spelled with the public
// single-vector operators: the same serial draws (column by column, each
// deflated), then per column `smoothing_iterations` of laplacian_apply,
// x -= sigma y and deflate_constant, scaled by 1/sqrt(t).
Matrix column_at_a_time_embedding(const CsrGraph& g, const ErOptions& opt) {
  using sgm::graph::Vec;
  const std::size_t n = g.num_nodes();
  const std::size_t t = static_cast<std::size_t>(std::max(1, opt.num_vectors));
  double d_max = 0.0;
  for (sgm::graph::NodeId u = 0; u < n; ++u)
    d_max = std::max(d_max, g.weighted_degree(u));
  if (d_max <= 0.0) d_max = 1.0;
  const double sigma = (2.0 / 3.0) / (2.0 * d_max);
  sgm::util::Rng rng(opt.seed);
  std::vector<Vec> cols(t, Vec(n));
  for (Vec& x : cols) {
    for (double& v : x) v = rng.uniform(-0.5, 0.5);
    sgm::graph::deflate_constant(x);
  }
  Matrix z(n, t);
  const double s = 1.0 / std::sqrt(static_cast<double>(t));
  Vec y;
  for (std::size_t c = 0; c < t; ++c) {
    Vec& x = cols[c];
    for (int it = 0; it < opt.smoothing_iterations; ++it) {
      sgm::graph::laplacian_apply(g, x, y);
      for (std::size_t i = 0; i < n; ++i) x[i] -= sigma * y[i];
      sgm::graph::deflate_constant(x);
    }
    for (std::size_t r = 0; r < n; ++r) z(r, c) = x[r] * s;
  }
  return z;
}

// Count of elements whose bits differ (0 when bit-identical); the first
// mismatch goes to the log.
std::size_t bit_mismatches(const Matrix& a, const Matrix& b,
                           const std::string& label) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    ADD_FAILURE() << label << ": shape " << a.rows() << "x" << a.cols()
                  << " vs " << b.rows() << "x" << b.cols();
    return 1;
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.data()[i]) ==
        std::bit_cast<std::uint64_t>(b.data()[i]))
      continue;
    if (bad++ == 0)
      ADD_FAILURE() << label << ": first mismatch at row " << i / a.cols()
                    << " col " << i % a.cols() << ": " << a.data()[i]
                    << " vs " << b.data()[i];
  }
  return bad;
}

TEST(EffectiveResistance, SmoothedIsBitIdenticalToColumnAtATimeSweeps) {
  // The embedding sweeps its columns in groups; every element must still
  // round exactly as a lone column through laplacian_apply and
  // deflate_constant does, for any width t (tail groups included), sweep
  // count and thread count.
  sgm::util::Rng rng(31);
  Matrix pts(700, 2);
  for (std::size_t i = 0; i < pts.size(); ++i) pts.data()[i] = rng.uniform();
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 20;  // LDC's registered k
  const CsrGraph cloud = sgm::graph::build_knn_graph(pts, kopt);

  // Several components: two grids, a weighted path and isolated nodes.
  std::vector<Edge> edges = grid_graph(9, 7).edges();
  const CsrGraph small_grid = grid_graph(5, 5);
  for (const Edge& e : small_grid.edges())
    edges.push_back({e.u + 63, e.v + 63, 0.5});
  for (std::uint32_t i = 88; i + 1 < 100; ++i)
    edges.push_back({i, i + 1, 0.25 + 0.1 * (i - 88)});
  const CsrGraph pieces = CsrGraph::from_edges(104, std::move(edges));
  ASSERT_GT(pieces.connected_components().second, 3u);

  for (const auto& [name, g] : {std::pair<const char*, const CsrGraph*>{
                                    "knn", &cloud},
                                {"components", &pieces}}) {
    for (int t : {1, 5, 12, 16}) {
      for (int iterations : {0, 1, 40}) {
        ErOptions opt;
        opt.num_vectors = t;
        opt.smoothing_iterations = iterations;
        opt.seed = 900 + static_cast<std::uint64_t>(t);
        const Matrix want = column_at_a_time_embedding(*g, opt);
        for (std::size_t threads : {1u, 4u}) {
          opt.num_threads = threads;
          const std::string label = std::string(name) + " t=" +
                                    std::to_string(t) + " iterations=" +
                                    std::to_string(iterations) + " threads=" +
                                    std::to_string(threads);
          EXPECT_EQ(bit_mismatches(
                        sgm::graph::effective_resistance_embedding(*g, opt),
                        want, label),
                    0u)
              << label;
        }
      }
    }
  }
}

// ------------------------------------------------------------------- LRD --

Clustering decompose_exact(const CsrGraph& g, int levels,
                           double budget = 0.0) {
  LrdOptions opt;
  opt.levels = levels;
  opt.diameter_budget = budget;
  opt.er.method = ErMethod::kExact;
  return sgm::graph::lrd_decompose(g, opt);
}

TEST(Lrd, EveryNodeAssignedExactlyOnce) {
  CsrGraph g = grid_graph(8, 8);
  Clustering c = decompose_exact(g, 6);
  EXPECT_EQ(c.node_cluster.size(), g.num_nodes());
  for (auto cl : c.node_cluster) EXPECT_LT(cl, c.num_clusters);
  auto sizes = c.sizes();
  const std::uint32_t total =
      std::accumulate(sizes.begin(), sizes.end(), 0u);
  EXPECT_EQ(total, g.num_nodes());
}

TEST(Lrd, ClustersAreConnectedSubgraphs) {
  CsrGraph g = grid_graph(10, 6);
  Clustering c = decompose_exact(g, 8);
  // BFS within each cluster using only intra-cluster edges must reach all
  // members (merges happen along edges, so this is an invariant).
  auto members = c.members();
  for (std::uint32_t cl = 0; cl < c.num_clusters; ++cl) {
    const auto& m = members[cl];
    ASSERT_FALSE(m.empty());
    std::vector<char> seen(g.num_nodes(), 0);
    std::vector<std::uint32_t> stack = {m[0]};
    seen[m[0]] = 1;
    std::size_t reached = 0;
    while (!stack.empty()) {
      const auto u = stack.back();
      stack.pop_back();
      ++reached;
      for (auto v : g.neighbors(u)) {
        if (!seen[v] && c.node_cluster[v] == cl) {
          seen[v] = 1;
          stack.push_back(v);
        }
      }
    }
    EXPECT_EQ(reached, m.size()) << "cluster " << cl;
  }
}

TEST(Lrd, TrueDiameterWithinRecordedBound) {
  // The merge-tree diameter bound must dominate the true pairwise ER within
  // each cluster (verified with exact ER on a small graph).
  CsrGraph g = grid_graph(6, 5);
  Clustering c = decompose_exact(g, 6);
  ErOptions opt;
  opt.method = ErMethod::kExact;
  const Matrix z = sgm::graph::effective_resistance_embedding(g, opt);
  auto members = c.members();
  for (std::uint32_t cl = 0; cl < c.num_clusters; ++cl) {
    const auto& m = members[cl];
    for (std::size_t a = 0; a < m.size(); ++a)
      for (std::size_t b = a + 1; b < m.size(); ++b) {
        const double er = sgm::graph::er_from_embedding(z, m[a], m[b]);
        EXPECT_LE(er, c.cluster_diameter[cl] + 1e-9)
            << "pair " << m[a] << "," << m[b] << " in cluster " << cl;
      }
  }
}

TEST(Lrd, MoreLevelsCoarsen) {
  CsrGraph g = grid_graph(12, 12);
  const Clustering c2 = decompose_exact(g, 2);
  const Clustering c10 = decompose_exact(g, 10);
  EXPECT_LE(c10.num_clusters, c2.num_clusters);
  EXPECT_GT(c10.num_clusters, 0u);
  EXPECT_LT(c10.num_clusters, g.num_nodes());  // did merge something
}

TEST(Lrd, MaxClusterSizeRespected) {
  CsrGraph g = grid_graph(10, 10);
  LrdOptions opt;
  opt.levels = 10;
  opt.max_cluster_size = 7;
  opt.er.method = ErMethod::kExact;
  Clustering c = sgm::graph::lrd_decompose(g, opt);
  for (auto s : c.sizes()) EXPECT_LE(s, 7u);
}

TEST(Lrd, TightBudgetMeansNoMerging) {
  CsrGraph g = grid_graph(6, 6);
  LrdOptions opt;
  opt.levels = 4;
  opt.diameter_budget = 1e-12;  // nothing fits
  opt.er.method = ErMethod::kExact;
  Clustering c = sgm::graph::lrd_decompose(g, opt);
  EXPECT_EQ(c.num_clusters, g.num_nodes());
}

TEST(Lrd, WorksOnKnnPointCloud) {
  // End-to-end S1 -> S2 on a realistic cloud: cluster count lands in a
  // sensible band and clusters are spatially tight.
  sgm::util::Rng rng(12);
  Matrix pts(600, 2);
  for (std::size_t i = 0; i < pts.size(); ++i) pts.data()[i] = rng.uniform();
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 8;
  CsrGraph g = sgm::graph::build_knn_graph(pts, kopt);
  LrdOptions opt;
  opt.levels = 6;
  opt.er.method = ErMethod::kSmoothed;
  opt.er.num_vectors = 8;
  Clustering c = sgm::graph::lrd_decompose(g, opt);
  EXPECT_GT(c.num_clusters, 10u);
  EXPECT_LT(c.num_clusters, 600u);
}

TEST(Lrd, DeterministicForFixedSeed) {
  CsrGraph g = grid_graph(9, 9);
  LrdOptions opt;
  opt.levels = 5;
  opt.er.method = ErMethod::kSmoothed;
  opt.er.seed = 77;
  Clustering a = sgm::graph::lrd_decompose(g, opt);
  Clustering b = sgm::graph::lrd_decompose(g, opt);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.node_cluster, b.node_cluster);
}

}  // namespace
