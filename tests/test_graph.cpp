// Unit tests for sgm::graph core — CSR assembly, Laplacian operators and
// the eigensolvers (dense Jacobi + Lanczos).

#include <gtest/gtest.h>

#include <cmath>

#include "graph/csr.hpp"
#include "graph/lanczos.hpp"
#include "graph/laplacian.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using sgm::graph::CsrGraph;
using sgm::graph::Edge;
using sgm::graph::Vec;
using sgm::tensor::Matrix;

CsrGraph path_graph(std::uint32_t n, double w = 1.0) {
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1, w});
  return CsrGraph::from_edges(n, std::move(edges));
}

CsrGraph cycle_graph(std::uint32_t n, double w = 1.0) {
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i < n; ++i)
    edges.push_back({i, (i + 1) % n, w});
  return CsrGraph::from_edges(n, std::move(edges));
}

CsrGraph random_connected_graph(std::uint32_t n, std::uint32_t extra,
                                sgm::util::Rng& rng) {
  std::vector<Edge> edges;
  for (std::uint32_t i = 1; i < n; ++i)
    edges.push_back({static_cast<std::uint32_t>(rng.uniform_index(i)), i,
                     rng.uniform(0.5, 2.0)});
  for (std::uint32_t t = 0; t < extra; ++t) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_index(n));
    const auto b = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (a != b) edges.push_back({a, b, rng.uniform(0.5, 2.0)});
  }
  return CsrGraph::from_edges(n, std::move(edges));
}

// --------------------------------------------------------------------- CSR --

TEST(Csr, BuildsAdjacencyAndDegrees) {
  CsrGraph g = CsrGraph::from_edges(4, {{0, 1, 2.0}, {1, 2, 1.0}, {2, 3, 1.0}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 3.0);
  auto nbrs = g.neighbors(1);
  EXPECT_EQ(nbrs.size(), 2u);
}

TEST(Csr, MergesDuplicatesAndDropsSelfLoops) {
  CsrGraph g = CsrGraph::from_edges(
      3, {{0, 1, 1.0}, {1, 0, 2.0}, {1, 1, 5.0}, {1, 2, 1.0}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.edge(0).w, 3.0);  // 0-1 merged
}

TEST(Csr, RejectsBadEdges) {
  EXPECT_THROW(CsrGraph::from_edges(2, {{0, 5, 1.0}}), std::out_of_range);
  EXPECT_THROW(CsrGraph::from_edges(2, {{0, 1, -1.0}}), std::invalid_argument);
}

TEST(Csr, ConnectedComponents) {
  CsrGraph g = CsrGraph::from_edges(5, {{0, 1, 1.0}, {2, 3, 1.0}});
  auto [label, count] = g.connected_components();
  EXPECT_EQ(count, 3u);  // {0,1}, {2,3}, {4}
  EXPECT_EQ(label[0], label[1]);
  EXPECT_NE(label[0], label[2]);
  EXPECT_FALSE(g.is_connected());
  EXPECT_TRUE(path_graph(6).is_connected());
}

TEST(Csr, AverageDegreeAndTotalWeight) {
  CsrGraph g = cycle_graph(10, 2.0);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 20.0);
}

TEST(CsrAudit, AcceptsEveryFromEdgesResult) {
  EXPECT_NO_THROW(CsrGraph::from_edges(0, {}).audit());
  EXPECT_NO_THROW(path_graph(7).audit());
  EXPECT_NO_THROW(cycle_graph(12, 0.5).audit());
  // Duplicate merging and self-loop dropping still leave a canonical graph.
  EXPECT_NO_THROW(
      CsrGraph::from_edges(3, {{0, 1, 1.0}, {1, 0, 2.0}, {1, 1, 5.0}})
          .audit());
}

TEST(CsrAudit, RejectsMalformedArrays) {
  using sgm::graph::NodeId;
  using sgm::util::CheckError;
  // A valid 3-node path 0-1-2 in raw-array form; each case below corrupts
  // one structure that from_edges could never produce.
  const std::vector<Edge> edges{{0, 1, 1.0}, {1, 2, 2.0}};
  const std::vector<std::size_t> offsets{0, 1, 3, 4};
  const std::vector<NodeId> nbr{1, 0, 2, 1};
  const std::vector<double> nbr_w{1.0, 1.0, 2.0, 2.0};
  const std::vector<double> wdeg{1.0, 3.0, 2.0};
  EXPECT_NO_THROW(
      sgm::graph::audit_csr_arrays(3, edges, offsets, nbr, nbr_w, wdeg));

  // Non-canonical edge (v < u).
  EXPECT_THROW(sgm::graph::audit_csr_arrays(3, {{1, 0, 1.0}, {1, 2, 2.0}},
                                            offsets, nbr, nbr_w, wdeg),
               CheckError);
  // Non-positive weight.
  EXPECT_THROW(sgm::graph::audit_csr_arrays(3, {{0, 1, 0.0}, {1, 2, 2.0}},
                                            offsets, nbr, nbr_w, wdeg),
               CheckError);
  // Offsets not covering 2|E|.
  EXPECT_THROW(
      sgm::graph::audit_csr_arrays(3, edges, {0, 1, 3, 3}, nbr, nbr_w, wdeg),
      CheckError);
  // Broken symmetry: node 2's row names the wrong neighbor.
  EXPECT_THROW(sgm::graph::audit_csr_arrays(3, edges, offsets, {1, 0, 2, 0},
                                            nbr_w, wdeg),
               CheckError);
  // A slot's weight disagrees with its edge's (row 1's weights swapped).
  EXPECT_THROW(sgm::graph::audit_csr_arrays(3, edges, offsets, nbr,
                                            {1.0, 2.0, 1.0, 2.0}, wdeg),
               CheckError);
  // Row 1 names edge (0, 1) twice and drops (1, 2): every slot's neighbor
  // and weight match some edge, but the rows are not symmetric.
  EXPECT_THROW(sgm::graph::audit_csr_arrays(3, edges, offsets, {1, 0, 0, 1},
                                            {1.0, 1.0, 1.0, 2.0}, wdeg),
               CheckError);
  // Weighted degree out of sync with the edge list.
  EXPECT_THROW(sgm::graph::audit_csr_arrays(3, edges, offsets, nbr, nbr_w,
                                            {1.0, 3.5, 2.0}),
               CheckError);
}

// --------------------------------------------------------------- Laplacian --

TEST(Laplacian, ApplyMatchesDense) {
  sgm::util::Rng rng(1);
  CsrGraph g = random_connected_graph(12, 10, rng);
  const Matrix dense = sgm::graph::laplacian_dense(g);
  Vec x(12);
  for (auto& v : x) v = rng.normal();
  Vec y;
  sgm::graph::laplacian_apply(g, x, y);
  for (std::size_t i = 0; i < 12; ++i) {
    double ref = 0;
    for (std::size_t j = 0; j < 12; ++j) ref += dense(i, j) * x[j];
    EXPECT_NEAR(y[i], ref, 1e-12);
  }
}

TEST(Laplacian, AnnihilatesConstants) {
  sgm::util::Rng rng(2);
  CsrGraph g = random_connected_graph(20, 15, rng);
  Vec ones(20, 1.0), y;
  sgm::graph::laplacian_apply(g, ones, y);
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Laplacian, DeflateRemovesMean) {
  Vec x = {1, 2, 3, 4};
  sgm::graph::deflate_constant(x);
  EXPECT_NEAR(x[0] + x[1] + x[2] + x[3], 0.0, 1e-14);
}

// --------------------------------------------------------------- Eigen ----

TEST(Jacobi, DiagonalizesKnownMatrix) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  Matrix a{{2, 1}, {1, 2}};
  auto eig = sgm::graph::jacobi_eigensymm(a);
  ASSERT_EQ(eig.values.size(), 2u);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-10);
}

TEST(Jacobi, ReconstructsMatrix) {
  sgm::util::Rng rng(4);
  const std::size_t n = 8;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  auto eig = sgm::graph::jacobi_eigensymm(a);
  // A = V diag(l) V^T
  Matrix recon(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0;
      for (std::size_t k = 0; k < n; ++k)
        s += eig.vectors(i, k) * eig.values[k] * eig.vectors(j, k);
      recon(i, j) = s;
    }
  EXPECT_LT((recon - a).max_abs(), 1e-8);
}

TEST(Jacobi, PathLaplacianEigenvalues) {
  // Path P_n Laplacian eigenvalues: 2 - 2 cos(pi k / n), k = 0..n-1.
  const std::uint32_t n = 6;
  auto eig = sgm::graph::jacobi_eigensymm(
      sgm::graph::laplacian_dense(path_graph(n)));
  for (std::uint32_t k = 0; k < n; ++k) {
    const double expect = 2.0 - 2.0 * std::cos(M_PI * k / n);
    EXPECT_NEAR(eig.values[k], expect, 1e-9);
  }
}

TEST(Lanczos, FindsExtremalLaplacianEigenvalues) {
  const std::uint32_t n = 40;
  CsrGraph g = cycle_graph(n);
  auto apply = [&](const Vec& x, Vec& y) {
    sgm::graph::laplacian_apply(g, x, y);
  };
  sgm::graph::LanczosOptions opt;
  opt.num_eigenpairs = 3;
  opt.max_iterations = 60;
  opt.largest = true;
  auto eig = sgm::graph::lanczos(apply, n, opt);
  ASSERT_GE(eig.values.size(), 1u);
  // Largest Laplacian eigenvalue of an even cycle is 4.
  EXPECT_NEAR(eig.values.back(), 4.0, 1e-6);
}

TEST(Lanczos, ResidualIsSmall) {
  sgm::util::Rng rng(5);
  CsrGraph g = random_connected_graph(30, 40, rng);
  auto apply = [&](const Vec& x, Vec& y) {
    sgm::graph::laplacian_apply(g, x, y);
  };
  sgm::graph::LanczosOptions opt;
  opt.num_eigenpairs = 2;
  opt.max_iterations = 60;
  auto eig = sgm::graph::lanczos(apply, 30, opt);
  for (std::size_t j = 0; j < eig.values.size(); ++j) {
    Vec v(30), av;
    for (std::size_t i = 0; i < 30; ++i) v[i] = eig.vectors(i, j);
    sgm::graph::laplacian_apply(g, v, av);
    double res = 0;
    for (std::size_t i = 0; i < 30; ++i) {
      const double r = av[i] - eig.values[j] * v[i];
      res += r * r;
    }
    EXPECT_LT(std::sqrt(res), 1e-5);
  }
}

}  // namespace
