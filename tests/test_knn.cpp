// Tests for exact kNN (kd-tree vs brute force) and kNN PGM graph
// construction (S1).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/knn.hpp"
#include "util/rng.hpp"

namespace {

using sgm::graph::CsrGraph;
using sgm::graph::Edge;
using sgm::graph::KdTree;
using sgm::graph::KnnGraphOptions;
using sgm::graph::KnnResult;
using sgm::tensor::Matrix;

Matrix random_points(std::size_t n, std::size_t d, sgm::util::Rng& rng) {
  Matrix m(n, d);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform();
  return m;
}

// Parameterized over (n, d, k).
class KdTreeVsBrute
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KdTreeVsBrute, ExactAgreement) {
  const auto [n, d, k] = GetParam();
  sgm::util::Rng rng(static_cast<std::uint64_t>(n * 131 + d * 7 + k));
  const Matrix pts = random_points(n, d, rng);
  KdTree tree(pts);
  KdTree::Neighbors fast;
  for (int probe = 0; probe < 25; ++probe) {
    const auto i =
        static_cast<sgm::graph::NodeId>(rng.uniform_index(pts.rows()));
    tree.query_point(i, k, fast);
    const KnnResult slow = sgm::graph::knn_brute_force(
        pts, pts.row(i), k, static_cast<std::int64_t>(i));
    ASSERT_EQ(fast.size(), slow.index.size());
    // Ties break on the index, so both select the same (dist2, index) list.
    for (std::size_t t = 0; t < fast.size(); ++t) {
      EXPECT_EQ(fast[t].first, slow.dist2[t]);
      EXPECT_EQ(fast[t].second, slow.index[t]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeVsBrute,
    ::testing::Values(std::make_tuple(50, 2, 5), std::make_tuple(500, 2, 10),
                      std::make_tuple(500, 3, 7), std::make_tuple(200, 4, 3),
                      std::make_tuple(64, 1, 4), std::make_tuple(1000, 2, 1),
                      // The widest PGM metric: 3 inputs + 3 output features.
                      std::make_tuple(1000, 5, 10),
                      std::make_tuple(2000, 6, 20)));

TEST(KdTree, QueryArbitraryPoint) {
  sgm::util::Rng rng(3);
  const Matrix pts = random_points(300, 2, rng);
  KdTree tree(pts);
  const double q[2] = {0.5, 0.5};
  auto r = tree.query(q, 4);
  auto ref = sgm::graph::knn_brute_force(pts, q, 4);
  for (int t = 0; t < 4; ++t) EXPECT_NEAR(r.dist2[t], ref.dist2[t], 1e-12);
}

TEST(KdTree, HandlesDuplicatePoints) {
  Matrix pts(10, 2);  // all identical
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    pts(i, 0) = 0.3;
    pts(i, 1) = 0.7;
  }
  KdTree tree(pts);
  KdTree::Neighbors r;
  tree.query_point(0, 3, r);
  const KnnResult ref = sgm::graph::knn_brute_force(pts, pts.row(0), 3, 0);
  ASSERT_EQ(r.size(), 3u);
  for (std::size_t t = 0; t < r.size(); ++t) {
    EXPECT_EQ(r[t].first, 0.0);
    EXPECT_EQ(r[t].second, ref.index[t]);  // ties break on the index: 1, 2, 3
  }
}

TEST(KnnGraph, UnionSymmetrizationIsConnectedOnBlobs) {
  sgm::util::Rng rng(4);
  const Matrix pts = random_points(400, 2, rng);
  KnnGraphOptions opt;
  opt.k = 8;
  const CsrGraph g = sgm::graph::build_knn_graph(pts, opt);
  EXPECT_EQ(g.num_nodes(), 400u);
  EXPECT_TRUE(g.is_connected());
  // Every node has degree >= k under union symmetrization... at least k
  // outgoing candidates existed; after dedup degree >= 1.
  for (sgm::graph::NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_GE(g.degree(v), 1u);
}

TEST(KnnGraph, InverseWeightsDecreaseWithDistance) {
  // Three collinear points: the nearer pair must get the larger weight.
  Matrix pts{{0.0, 0.0}, {0.1, 0.0}, {0.5, 0.0}};
  KnnGraphOptions opt;
  opt.k = 2;
  const CsrGraph g = sgm::graph::build_knn_graph(pts, opt);
  double w01 = 0, w12 = 0;
  for (const auto& e : g.edges()) {
    if (e.u == 0 && e.v == 1) w01 = e.w;
    if (e.u == 1 && e.v == 2) w12 = e.w;
  }
  ASSERT_GT(w01, 0.0);
  ASSERT_GT(w12, 0.0);
  EXPECT_GT(w01, w12);
}

TEST(KnnGraph, MutualModeIsSubsetOfUnion) {
  sgm::util::Rng rng(5);
  const Matrix pts = random_points(200, 2, rng);
  KnnGraphOptions u, m;
  u.k = m.k = 6;
  m.mutual = true;
  const CsrGraph gu = sgm::graph::build_knn_graph(pts, u);
  const CsrGraph gm = sgm::graph::build_knn_graph(pts, m);
  EXPECT_LE(gm.num_edges(), gu.num_edges());
}

TEST(KnnGraph, UnitWeights) {
  sgm::util::Rng rng(6);
  const Matrix pts = random_points(50, 2, rng);
  KnnGraphOptions opt;
  opt.k = 4;
  opt.weight = sgm::graph::KnnWeight::kUnit;
  const CsrGraph g = sgm::graph::build_knn_graph(pts, opt);
  for (const auto& e : g.edges()) EXPECT_DOUBLE_EQ(e.w, 1.0);
}

TEST(KnnGraph, GaussWeightsInUnitInterval) {
  sgm::util::Rng rng(7);
  const Matrix pts = random_points(50, 2, rng);
  KnnGraphOptions opt;
  opt.k = 4;
  opt.weight = sgm::graph::KnnWeight::kGauss;
  const CsrGraph g = sgm::graph::build_knn_graph(pts, opt);
  for (const auto& e : g.edges()) {
    EXPECT_GT(e.w, 0.0);
    EXPECT_LE(e.w, 1.0);
  }
}

// build_knn_graph's edge list spelled with knn_brute_force: each point's
// directed candidates in point order, weighted (the Gauss scale is the mean
// kNN distance, summed per 256-point chunk and the chunk sums merged in
// order), the mutual filter taken from the smaller end of each pair, then
// canonical, sorted and deduplicated.
std::vector<Edge> brute_force_knn_edges(const Matrix& pts,
                                        const KnnGraphOptions& opt) {
  const std::size_t n = pts.rows();
  const std::size_t k = std::min(opt.k, n - 1);
  std::vector<KnnResult> nn(n);
  for (std::size_t i = 0; i < n; ++i)
    nn[i] = sgm::graph::knn_brute_force(pts, pts.row(i), k,
                                        static_cast<std::int64_t>(i));
  constexpr std::size_t kSigmaChunk = 256;
  double sum = 0.0;
  for (std::size_t b = 0; b < n; b += kSigmaChunk) {
    double chunk = 0.0;
    for (std::size_t i = b; i < std::min(n, b + kSigmaChunk); ++i)
      for (double d2 : nn[i].dist2) chunk += std::sqrt(d2);
    sum += chunk;
  }
  double sigma = n * k > 0 ? sum / static_cast<double>(n * k) : 0.0;
  if (!(sigma > 0)) sigma = 1.0;
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t t = 0; t < nn[i].index.size(); ++t) {
      const auto j = nn[i].index[t];
      if (opt.mutual &&
          (j <= i || std::find(nn[j].index.begin(), nn[j].index.end(), i) ==
                         nn[j].index.end()))
        continue;
      const double d2 = nn[i].dist2[t];
      double w = 1.0;
      if (opt.weight == sgm::graph::KnnWeight::kInverse)
        w = 1.0 / (std::sqrt(d2) + opt.inverse_eps);
      if (opt.weight == sgm::graph::KnnWeight::kGauss)
        w = std::exp(-d2 / (2.0 * sigma * sigma));
      const auto u = static_cast<sgm::graph::NodeId>(i);
      edges.push_back({std::min(u, j), std::max(u, j), w});
    }
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const Edge& a, const Edge& b) {
                     return a.u != b.u ? a.u < b.u : a.v < b.v;
                   });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const Edge& a, const Edge& b) {
                            return a.u == b.u && a.v == b.v;
                          }),
              edges.end());
  return edges;
}

TEST(KnnGraph, EdgeListIsBitIdenticalToBruteForceReference) {
  // Union and mutual modes, every weight scheme, 1 and 4 threads, on a cloud
  // with exact duplicate points (zero distances, index tie-breaks) and more
  // than one 256-point chunk.
  sgm::util::Rng rng(41);
  Matrix pts = random_points(700, 2, rng);
  for (std::size_t i = 0; i < 60; ++i)
    for (std::size_t c = 0; c < 2; ++c) pts(640 + i, c) = pts(3 * i, c);
  for (const bool mutual : {false, true}) {
    for (const auto weight :
         {sgm::graph::KnnWeight::kUnit, sgm::graph::KnnWeight::kInverse,
          sgm::graph::KnnWeight::kGauss}) {
      KnnGraphOptions opt;
      opt.k = 7;
      opt.mutual = mutual;
      opt.weight = weight;
      const std::vector<Edge> want = brute_force_knn_edges(pts, opt);
      for (std::size_t threads : {1u, 4u}) {
        opt.num_threads = threads;
        const std::string label =
            std::string(mutual ? "mutual" : "union") + " weight=" +
            std::to_string(static_cast<int>(weight)) +
            " threads=" + std::to_string(threads);
        const CsrGraph g = sgm::graph::build_knn_graph(pts, opt);
        ASSERT_EQ(g.edges().size(), want.size()) << label;
        std::size_t bad = 0;
        for (std::size_t e = 0; e < want.size(); ++e) {
          const Edge& a = g.edges()[e];
          if (a.u == want[e].u && a.v == want[e].v &&
              std::bit_cast<std::uint64_t>(a.w) ==
                  std::bit_cast<std::uint64_t>(want[e].w))
            continue;
          if (bad++ == 0)
            ADD_FAILURE() << label << ": edge " << e << " is (" << a.u << ", "
                          << a.v << ", " << a.w << "), want (" << want[e].u
                          << ", " << want[e].v << ", " << want[e].w << ")";
        }
        EXPECT_EQ(bad, 0u) << label;
      }
    }
  }
}

TEST(KnnGraph, NanCoordinateQueryThatComesBackShortIsSafe) {
  // A NaN coordinate prunes the kd-tree search to one leaf (at most 16
  // points), so with k = 20 that point's query returns fewer than k
  // neighbors. The build must not read past them, and stays
  // thread-count independent.
  sgm::util::Rng rng(43);
  Matrix pts = random_points(64, 2, rng);
  pts(10, 0) = std::nan("");
  pts(10, 1) = std::nan("");
  KdTree tree(pts);
  KdTree::Neighbors nbrs;
  tree.query_point(10, 20, nbrs);
  ASSERT_LT(nbrs.size(), 20u);
  KnnGraphOptions opt;
  opt.k = 20;
  opt.weight = sgm::graph::KnnWeight::kUnit;
  opt.num_threads = 1;
  const CsrGraph serial = sgm::graph::build_knn_graph(pts, opt);
  opt.num_threads = 4;
  const CsrGraph threaded = sgm::graph::build_knn_graph(pts, opt);
  ASSERT_EQ(serial.edges().size(), threaded.edges().size());
  for (std::size_t e = 0; e < serial.edges().size(); ++e) {
    EXPECT_EQ(serial.edges()[e].u, threaded.edges()[e].u);
    EXPECT_EQ(serial.edges()[e].v, threaded.edges()[e].v);
    EXPECT_LT(serial.edges()[e].u, serial.edges()[e].v);
  }
}

}  // namespace
