// Property-based suites (parameterized gtest sweeps) asserting structural
// invariants across module boundaries: linear-algebra identities over shape
// sweeps, Laplacian properties over graph families, epoch-builder
// guarantees over configuration grids, checkpoint round-trips, and sampler
// distribution laws.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "core/epoch_builder.hpp"
#include "core/sgm_sampler.hpp"
#include "graph/effective_resistance.hpp"
#include "graph/knn.hpp"
#include "graph/laplacian.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "samplers/sampler.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace {

using sgm::graph::CsrGraph;
using sgm::graph::Edge;
using sgm::graph::Vec;
using sgm::tensor::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, sgm::util::Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

// ---------------------------------------------------------- matmul algebra --

class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulShapes, AssociativityAndTransposeIdentities) {
  const auto [m, k, n] = GetParam();
  sgm::util::Rng rng(m * 100 + k * 10 + n);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);

  // (A B)^T == B^T A^T
  const Matrix abt = sgm::tensor::transpose(sgm::tensor::matmul(a, b));
  const Matrix btat = sgm::tensor::matmul(sgm::tensor::transpose(b),
                                          sgm::tensor::transpose(a));
  EXPECT_LT((abt - btat).max_abs(), 1e-11);

  // Distributivity: A (B + C) == A B + A C
  const Matrix c = random_matrix(k, n, rng);
  const Matrix lhs = sgm::tensor::matmul(a, b + c);
  const Matrix rhs = sgm::tensor::matmul(a, b) + sgm::tensor::matmul(a, c);
  EXPECT_LT((lhs - rhs).max_abs(), 1e-11);

  // matmul_tn / matmul_nt consistency with explicit transposes.
  EXPECT_LT((sgm::tensor::matmul_tn(a, sgm::tensor::matmul(a, b)) -
             sgm::tensor::matmul(sgm::tensor::transpose(a),
                                 sgm::tensor::matmul(a, b)))
                .max_abs(),
            1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, MatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 9, 2), std::make_tuple(33, 2, 17)));

// ------------------------------------------------------ Laplacian families --

enum class GraphFamily { kPath, kCycle, kGrid, kRandom, kStar };

CsrGraph make_family(GraphFamily family, std::uint32_t n,
                     sgm::util::Rng& rng) {
  std::vector<Edge> edges;
  switch (family) {
    case GraphFamily::kPath:
      for (std::uint32_t i = 0; i + 1 < n; ++i)
        edges.push_back({i, i + 1, rng.uniform(0.5, 2.0)});
      break;
    case GraphFamily::kCycle:
      for (std::uint32_t i = 0; i < n; ++i)
        edges.push_back({i, (i + 1) % n, rng.uniform(0.5, 2.0)});
      break;
    case GraphFamily::kGrid: {
      const auto side = static_cast<std::uint32_t>(std::sqrt(n));
      for (std::uint32_t y = 0; y < side; ++y)
        for (std::uint32_t x = 0; x < side; ++x) {
          if (x + 1 < side)
            edges.push_back({y * side + x, y * side + x + 1, 1.0});
          if (y + 1 < side)
            edges.push_back({y * side + x, (y + 1) * side + x, 1.0});
        }
      n = side * side;
      break;
    }
    case GraphFamily::kRandom:
      for (std::uint32_t i = 1; i < n; ++i)
        edges.push_back({static_cast<std::uint32_t>(rng.uniform_index(i)), i,
                         rng.uniform(0.5, 2.0)});
      for (std::uint32_t t = 0; t < n; ++t) {
        const auto a = static_cast<std::uint32_t>(rng.uniform_index(n));
        const auto b = static_cast<std::uint32_t>(rng.uniform_index(n));
        if (a != b) edges.push_back({a, b, rng.uniform(0.5, 2.0)});
      }
      break;
    case GraphFamily::kStar:
      for (std::uint32_t i = 1; i < n; ++i)
        edges.push_back({0, i, rng.uniform(0.5, 2.0)});
      break;
  }
  return CsrGraph::from_edges(n, std::move(edges));
}

class LaplacianFamilies
    : public ::testing::TestWithParam<std::tuple<GraphFamily, int>> {};

TEST_P(LaplacianFamilies, PsdAndSymmetric) {
  const auto [family, n] = GetParam();
  sgm::util::Rng rng(static_cast<std::uint64_t>(n) * 17 +
                     static_cast<std::uint64_t>(family));
  const CsrGraph g = make_family(family, n, rng);
  const std::size_t nn = g.num_nodes();

  // Quadratic form non-negative (PSD) for random vectors, and symmetric:
  // x^T L y == y^T L x.
  Vec x(nn), y(nn), lx, ly;
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  sgm::graph::laplacian_apply(g, x, lx);
  sgm::graph::laplacian_apply(g, y, ly);
  EXPECT_GE(sgm::graph::dot(x, lx), -1e-10);
  EXPECT_NEAR(sgm::graph::dot(x, ly), sgm::graph::dot(y, lx), 1e-8);
}

TEST_P(LaplacianFamilies, FosterSumOnConnectedFamilies) {
  const auto [family, n] = GetParam();
  sgm::util::Rng rng(static_cast<std::uint64_t>(n) * 31 +
                     static_cast<std::uint64_t>(family));
  const CsrGraph g = make_family(family, n, rng);
  if (g.num_nodes() > 40) GTEST_SKIP() << "dense eig too slow";
  sgm::graph::ErOptions opt;
  opt.method = sgm::graph::ErMethod::kExact;
  const Matrix z = sgm::graph::effective_resistance_embedding(g, opt);
  const auto er = sgm::graph::edge_effective_resistance(g, z);
  double total = 0;
  for (std::size_t e = 0; e < er.size(); ++e)
    total += g.edge(static_cast<sgm::graph::EdgeId>(e)).w * er[e];
  EXPECT_NEAR(total, g.num_nodes() - 1.0, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    FamilySweep, LaplacianFamilies,
    ::testing::Combine(::testing::Values(GraphFamily::kPath,
                                         GraphFamily::kCycle,
                                         GraphFamily::kGrid,
                                         GraphFamily::kRandom,
                                         GraphFamily::kStar),
                       ::testing::Values(16, 36, 100)));

// ------------------------------------------------------------ epoch builder --

class EpochBuilderGrid
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(EpochBuilderGrid, InvariantsHoldAcrossConfigurations) {
  const auto [fraction, ratio_min, ratio_max] = GetParam();
  // 12 clusters of heterogeneous sizes.
  sgm::graph::Clustering c;
  c.num_clusters = 12;
  std::vector<std::uint32_t> sizes = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 40, 29};
  for (std::uint32_t cl = 0; cl < 12; ++cl)
    for (std::uint32_t i = 0; i < sizes[cl]; ++i)
      c.node_cluster.push_back(cl);
  c.cluster_diameter.assign(12, 0.0);
  sgm::core::ClusterStore store(std::move(c));

  sgm::util::Rng rng(7);
  std::vector<double> scores(12);
  for (auto& s : scores) s = rng.uniform(0.1, 5.0);

  sgm::core::EpochBuilderOptions opt;
  opt.epoch_fraction = fraction;
  opt.ratio_min = ratio_min;
  opt.ratio_max = ratio_max;
  auto epoch = sgm::core::build_epoch(store, scores, opt, rng);

  // Floor of one per cluster; never exceed cluster size; no duplicates.
  for (std::uint32_t cl = 0; cl < 12; ++cl) {
    EXPECT_GE(epoch.per_cluster[cl], 1u);
    EXPECT_LE(epoch.per_cluster[cl], sizes[cl]);
  }
  std::set<std::uint32_t> uniq(epoch.indices.begin(), epoch.indices.end());
  EXPECT_EQ(uniq.size(), epoch.indices.size());
  // Total within [num_clusters, N].
  EXPECT_GE(epoch.indices.size(), 12u);
  EXPECT_LE(epoch.indices.size(), store.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, EpochBuilderGrid,
    ::testing::Combine(::testing::Values(0.05, 0.25, 0.75),
                       ::testing::Values(0.1, 0.5),
                       ::testing::Values(1.0, 4.0, 16.0)));

// ----------------------------------------------------------- alias sampling --

class AliasDistribution : public ::testing::TestWithParam<int> {};

TEST_P(AliasDistribution, ChiSquareWithinBounds) {
  const int n = GetParam();
  sgm::util::Rng rng(n);
  std::vector<double> w(n);
  for (auto& x : w) x = rng.uniform(0.1, 3.0);
  sgm::samplers::AliasTable table(w);
  const int draws = 40000;
  std::vector<int> count(n, 0);
  for (int i = 0; i < draws; ++i) ++count[table.sample(rng)];
  double chi2 = 0;
  for (int i = 0; i < n; ++i) {
    const double expect = table.probability(i) * draws;
    chi2 += (count[i] - expect) * (count[i] - expect) / expect;
  }
  // Very generous 5-sigma-ish bound: chi2 ~ n - 1 +- sqrt(2(n-1)) * 5.
  EXPECT_LT(chi2, (n - 1) + 5 * std::sqrt(2.0 * (n - 1)) + 10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AliasDistribution,
                         ::testing::Values(2, 5, 17, 64, 256));

// ------------------------------------------------------------- checkpoints --

class CheckpointRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CheckpointRoundTrip, ForwardIdenticalAfterReload) {
  const auto [width, depth] = GetParam();
  sgm::nn::MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 3;
  cfg.width = width;
  cfg.depth = depth;
  sgm::util::Rng rng(width * 10 + depth);
  sgm::nn::Mlp a(cfg, rng);
  sgm::nn::Mlp b(cfg, rng);  // different init

  std::stringstream stream;
  sgm::nn::save_parameters(a, stream);
  sgm::nn::load_parameters(b, stream);

  sgm::util::Rng prng(3);
  const Matrix x = random_matrix(5, 2, prng);
  EXPECT_LT((a.forward(x) - b.forward(x)).max_abs(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Architectures, CheckpointRoundTrip,
                         ::testing::Combine(::testing::Values(4, 16, 48),
                                            ::testing::Values(1, 3, 5)));

TEST(Checkpoint, RejectsArchitectureMismatch) {
  sgm::nn::MlpConfig small, big;
  small.input_dim = big.input_dim = 2;
  small.output_dim = big.output_dim = 1;
  small.width = 4;
  big.width = 8;
  small.depth = big.depth = 2;
  sgm::util::Rng rng(1);
  sgm::nn::Mlp a(small, rng), b(big, rng);
  std::stringstream stream;
  sgm::nn::save_parameters(a, stream);
  EXPECT_THROW(sgm::nn::load_parameters(b, stream), std::runtime_error);
}

TEST(Checkpoint, RejectsGarbage) {
  sgm::nn::MlpConfig cfg;
  cfg.width = 4;
  cfg.depth = 1;
  sgm::util::Rng rng(1);
  sgm::nn::Mlp net(cfg, rng);
  std::stringstream stream("not a checkpoint at all");
  EXPECT_THROW(sgm::nn::load_parameters(net, stream), std::runtime_error);
}

TEST(Checkpoint, FileRoundTrip) {
  sgm::nn::MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 1;
  cfg.width = 8;
  cfg.depth = 2;
  sgm::util::Rng rng(9);
  sgm::nn::Mlp a(cfg, rng), b(cfg, rng);
  const std::string path = "/tmp/sgm_ckpt_test.txt";
  sgm::nn::save_checkpoint(a, path);
  sgm::nn::load_checkpoint(b, path);
  sgm::util::Rng prng(4);
  const Matrix x = random_matrix(3, 2, prng);
  EXPECT_LT((a.forward(x) - b.forward(x)).max_abs(), 1e-12);
  std::remove(path.c_str());
}

// ------------------------------------------------- kNN graphs across dims --

class KnnGraphDims : public ::testing::TestWithParam<int> {};

TEST_P(KnnGraphDims, DegreeBoundsAndSymmetry) {
  const int d = GetParam();
  sgm::util::Rng rng(d * 1001);
  Matrix pts(300, d);
  for (std::size_t i = 0; i < pts.size(); ++i) pts.data()[i] = rng.uniform();
  sgm::graph::KnnGraphOptions opt;
  opt.k = 6;
  const CsrGraph g = sgm::graph::build_knn_graph(pts, opt);
  // Union symmetrization: degree >= k is NOT guaranteed, but every node has
  // at least its own k out-edges merged in, so degree >= 1 and the mean
  // degree is >= k.
  double mean_deg = 0;
  for (sgm::graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(g.degree(v), 1u);
    mean_deg += static_cast<double>(g.degree(v));
  }
  mean_deg /= g.num_nodes();
  EXPECT_GE(mean_deg, 6.0);
  // Symmetry: neighbor lists are consistent both ways.
  for (sgm::graph::NodeId v = 0; v < 20; ++v) {
    for (auto u : g.neighbors(v)) {
      const auto nb = g.neighbors(u);
      EXPECT_NE(std::find(nb.begin(), nb.end(), v), nb.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, KnnGraphDims, ::testing::Values(1, 2, 3, 5));

}  // namespace
