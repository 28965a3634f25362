// Tests for exact kNN (kd-tree vs brute force) and kNN PGM graph
// construction (S1).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/knn.hpp"
#include "util/rng.hpp"

namespace {

using sgm::graph::CsrGraph;
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
  for (int probe = 0; probe < 25; ++probe) {
    const auto i =
        static_cast<sgm::graph::NodeId>(rng.uniform_index(pts.rows()));
    const KnnResult fast = tree.query_point(i, k);
    const KnnResult slow = sgm::graph::knn_brute_force(
        pts, pts.row(i), k, static_cast<std::int64_t>(i));
    ASSERT_EQ(fast.index.size(), slow.index.size());
    // Distances must agree exactly (ties may permute indices).
    for (std::size_t t = 0; t < fast.dist2.size(); ++t)
      EXPECT_NEAR(fast.dist2[t], slow.dist2[t], 1e-12);
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
  auto r = tree.query_point(0, 3);
  EXPECT_EQ(r.index.size(), 3u);
  for (double d2v : r.dist2) EXPECT_DOUBLE_EQ(d2v, 0.0);
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

}  // namespace
