// Tests for graph/cholesky: the RCM ordering and the envelope Cholesky
// factor of L + sigma I that S3 (spade/isr) solves with. Solves are checked
// against the dense reference factor in dense_oracle.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "dense_oracle.hpp"
#include "graph/cholesky.hpp"
#include "graph/knn.hpp"
#include "graph/laplacian.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using sgm::graph::CsrGraph;
using sgm::graph::EnvelopeCholesky;
using sgm::graph::Vec;
using sgm::tensor::Matrix;

// n points uniform in [0, 1]^d; every 7th point is a copy of its
// predecessor, alternately exact (weight 1/eps = 1e12) and offset by 1e-9
// (weight ~1e9).
Matrix cloud_with_duplicates(std::size_t n, std::size_t d, std::uint64_t seed) {
  sgm::util::Rng rng(seed);
  Matrix pts(n, d);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < d; ++c)
      pts(i, c) = i % 7 == 6 ? pts(i - 1, c) + (i % 14 == 6 ? 0.0 : 1e-9)
                             : rng.uniform();
  return pts;
}

CsrGraph knn(const Matrix& pts, std::size_t k) {
  sgm::graph::KnnGraphOptions opt;
  opt.k = k;
  opt.weight = sgm::graph::KnnWeight::kInverse;
  return sgm::graph::build_knn_graph(pts, opt);
}

// ISR's shift: a fraction of the mean weighted degree.
double isr_shift(const CsrGraph& g, double rel) {
  double mean = 0.0;
  for (sgm::graph::NodeId u = 0; u < g.num_nodes(); ++u)
    mean += g.weighted_degree(u);
  return rel * std::max(mean / std::max<double>(1, g.num_nodes()), 1e-12);
}

Matrix shifted_dense(const CsrGraph& g, double sigma) {
  Matrix a = sgm::graph::laplacian_dense(g);
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, i) += sigma;
  return a;
}

double relative_residual(const Matrix& a, const Vec& x, const Vec& b) {
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    double ax = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) ax += a(i, j) * x[j];
    rr += (ax - b[i]) * (ax - b[i]);
    bb += b[i] * b[i];
  }
  return std::sqrt(rr / bb);
}

// Factors L + sigma I, solves three right-hand sides, and checks each
// against the dense system and the dense reference solve.
void expect_solves_match_dense(const CsrGraph& g, double sigma,
                               const std::string& label) {
  const EnvelopeCholesky factor(g, sigma);
  const Matrix a = shifted_dense(g, sigma);
  const Matrix c = sgm::testutil::dense_cholesky(a);
  sgm::util::Rng rng(11);
  for (int rhs = 0; rhs < 3; ++rhs) {
    Vec b(g.num_nodes());
    for (double& v : b) v = rng.normal();
    Vec x;
    factor.solve(b, x);
    const Vec xd = sgm::testutil::lower_transpose_solve(
        c, sgm::testutil::lower_solve(c, b));
    EXPECT_LE(relative_residual(a, x, b), 1e-10) << label << " rhs " << rhs;
    EXPECT_LE(relative_residual(a, xd, b), 1e-10)
        << label << " rhs " << rhs << " (dense reference)";
  }
}

TEST(Cholesky, SolveMatchesDenseOnKnnGraphs) {
  for (std::size_t d : {1, 2, 3}) {
    for (std::size_t k : {4, 10}) {
      const CsrGraph g = knn(cloud_with_duplicates(160, d, 5 + d), k);
      const std::string label =
          "d=" + std::to_string(d) + " k=" + std::to_string(k);
      expect_solves_match_dense(g, isr_shift(g, 1e-4), label);
    }
  }
}

TEST(Cholesky, SolveMatchesDenseOnDisconnectedGraph) {
  // Two kNN clusters far apart plus an isolated node: three components.
  Matrix pts(81, 2);
  const Matrix a = cloud_with_duplicates(40, 2, 3);
  for (std::size_t i = 0; i < 40; ++i)
    for (std::size_t c = 0; c < 2; ++c) {
      pts(i, c) = a(i, c);
      pts(40 + i, c) = a(i, c) + 100.0;
    }
  const CsrGraph joined = knn(pts, 4);
  // Drop every edge between the halves and every edge at the last node.
  std::vector<sgm::graph::Edge> kept;
  for (const auto& e : joined.edges())
    if ((e.u < 40) == (e.v < 40) && e.v != 80) kept.push_back(e);
  const CsrGraph g = CsrGraph::from_edges(81, std::move(kept));
  ASSERT_EQ(g.connected_components().second, 3u);
  expect_solves_match_dense(g, isr_shift(g, 1e-4), "disconnected");
}

TEST(Cholesky, SolvesOneAndTwoNodeGraphs) {
  const CsrGraph one = CsrGraph::from_edges(1, {});
  expect_solves_match_dense(one, 0.5, "n=1");
  Vec x;
  EnvelopeCholesky(one, 0.5).solve({2.0}, x);
  EXPECT_DOUBLE_EQ(x[0], 4.0);
  const CsrGraph two = CsrGraph::from_edges(2, {{0, 1, 3.0}});
  expect_solves_match_dense(two, 1e-3, "n=2");
}

TEST(Cholesky, SolveMayAliasRhs) {
  const CsrGraph g = knn(cloud_with_duplicates(50, 2, 9), 4);
  const EnvelopeCholesky factor(g, 0.1);
  Vec b(50);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(double(i));
  Vec x;
  factor.solve(b, x);
  factor.solve(b, b);
  EXPECT_EQ(x, b);
  Vec short_rhs(49, 1.0);
  EXPECT_THROW(factor.solve(short_rhs, x), std::invalid_argument);
}

TEST(Rcm, OrderIsADeterministicPermutation) {
  for (std::size_t d : {1, 2, 3}) {
    const CsrGraph g = knn(cloud_with_duplicates(300, d, 21), 6);
    const std::vector<sgm::graph::NodeId> order = sgm::graph::rcm_order(g);
    std::vector<sgm::graph::NodeId> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(sorted.size(), g.num_nodes());
    for (std::size_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(sorted[i], i);
    EXPECT_EQ(sgm::graph::rcm_order(g), order) << "d=" << d;
  }
}

TEST(Cholesky, EnvelopeOnOneDimensionalKnnIsLinear) {
  // S3's cost model: on a kNN graph over one column of losses, RCM keeps
  // the envelope within (k + 1) n, so a factor costs O(k^2 n) and a solve
  // O(k n). Smooth, clustered and quantized (repeated-value) columns.
  for (std::size_t n : {200, 1000, 4096}) {
    for (std::size_t k : {4, 10}) {
      sgm::util::Rng rng(n + k);
      for (int shape = 0; shape < 3; ++shape) {
        Matrix y(n, 1);
        for (std::size_t i = 0; i < n; ++i) {
          const double u = rng.uniform();
          y(i, 0) = shape == 0   ? u
                    : shape == 1 ? std::exp(8.0 * u) * 1e-3
                                 : std::round(u * 64.0) / 64.0 + 1e-9 * u;
        }
        const CsrGraph g = knn(y, k);
        const EnvelopeCholesky factor(g, isr_shift(g, 1e-4));
        EXPECT_LE(factor.envelope(), (k + 1) * n)
            << "n=" << n << " k=" << k << " shape=" << shape;
      }
    }
  }
}

TEST(Cholesky, RejectsNonPositiveShift) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  EXPECT_THROW(EnvelopeCholesky(g, 0.0), std::invalid_argument);
  EXPECT_THROW(EnvelopeCholesky(g, -1.0), std::invalid_argument);
  EXPECT_THROW(
      EnvelopeCholesky(g, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

TEST(Cholesky, BadPivotThrowsInsteadOfReturningNan) {
  // An infinite weight makes the first pivot infinite.
  const double inf = std::numeric_limits<double>::infinity();
  const CsrGraph infinite = CsrGraph::from_edges(2, {{0, 1, inf}});
  EXPECT_THROW(EnvelopeCholesky(infinite, 1.0), sgm::util::CheckError);
  // The shift is lost to rounding next to a 1e20 weight, so the second
  // pivot cancels to exactly zero.
  const CsrGraph heavy = CsrGraph::from_edges(2, {{0, 1, 1e20}});
  EXPECT_THROW(EnvelopeCholesky(heavy, 1e-10), sgm::util::CheckError);
}

}  // namespace
