// Tests for the SPADE / ISR stability metric (S3): generalized eigenvalue
// sanity on constructed input/output graph pairs and localization of node
// scores at unstable regions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dense_oracle.hpp"
#include "graph/knn.hpp"
#include "graph/lanczos.hpp"
#include "graph/laplacian.hpp"
#include "spade/isr.hpp"
#include "util/rng.hpp"

namespace {

using sgm::graph::CsrGraph;
using sgm::spade::IsrOptions;
using sgm::spade::IsrResult;
using sgm::tensor::Matrix;

Matrix line_points(std::size_t n) {
  Matrix pts(n, 1);
  for (std::size_t i = 0; i < n; ++i)
    pts(i, 0) = static_cast<double>(i) / static_cast<double>(n - 1);
  return pts;
}

TEST(Isr, IdentityMapHasUnitEigenvalues) {
  // Y = X => L_Y == L_X => generalized eigenvalues ~ 1 (up to the shift).
  const std::size_t n = 60;
  const Matrix x = line_points(n);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 4;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.rank = 4;
  opt.subspace_iterations = 8;
  opt.y_knn.k = 4;
  const IsrResult r = sgm::spade::compute_isr(gx, x, opt);
  ASSERT_FALSE(r.eigenvalues.empty());
  for (double ev : r.eigenvalues) EXPECT_NEAR(ev, 1.0, 0.25);
}

TEST(Isr, UniformScalingScalesIsrMax) {
  // Y = 2X halves the inverse-distance output weights, so L_Y = L_X / 2 and
  // the pencil's eigenvalues all become ~2.
  const std::size_t n = 60;
  const Matrix x = line_points(n);
  Matrix y = x;
  y.scale(2.0);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 4;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.rank = 4;
  opt.subspace_iterations = 8;
  opt.y_knn.k = 4;
  const IsrResult r = sgm::spade::compute_isr(gx, y, opt);
  EXPECT_NEAR(r.isr_max(), 2.0, 0.5);
}

TEST(Isr, ScoresLocalizeAtSteepRegion) {
  // Map: identity on [0, 0.5], steep x20 slope on (0.5, 1]. Node scores in
  // the steep half must dominate those in the flat half.
  const std::size_t n = 120;
  const Matrix x = line_points(n);
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = x(i, 0);
    y(i, 0) = v <= 0.5 ? v : 0.5 + 20.0 * (v - 0.5);
  }
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 4;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.rank = 6;
  opt.subspace_iterations = 10;
  opt.y_knn.k = 4;
  const IsrResult r = sgm::spade::compute_isr(gx, y, opt);

  double steep = 0, flat = 0;
  std::size_t steep_n = 0, flat_n = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (x(i, 0) > 0.55) {
      steep += r.node_score[i];
      ++steep_n;
    } else if (x(i, 0) < 0.45) {
      flat += r.node_score[i];
      ++flat_n;
    }
  }
  steep /= steep_n;
  flat /= flat_n;
  EXPECT_GT(steep, 2.0 * flat)
      << "steep mean " << steep << " flat mean " << flat;
}

TEST(Isr, EdgeScoreSymmetricNonNegative) {
  const std::size_t n = 40;
  sgm::util::Rng rng(3);
  Matrix x(n, 2);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform();
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) y(i, 0) = std::sin(5 * x(i, 0));
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 5;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.rank = 4;
  const IsrResult r = sgm::spade::compute_isr(gx, y, opt);
  for (sgm::graph::NodeId p = 0; p < 10; ++p) {
    for (sgm::graph::NodeId q = 0; q < 10; ++q) {
      const double spq = sgm::spade::isr_edge_score(r, p, q);
      EXPECT_GE(spq, 0.0);
      EXPECT_NEAR(spq, sgm::spade::isr_edge_score(r, q, p), 1e-12);
    }
  }
}

TEST(Isr, NodeScoresMatchNeighborAverageDefinition) {
  const std::size_t n = 30;
  const Matrix x = line_points(n);
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) y(i, 0) = x(i, 0) * x(i, 0);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 3;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.rank = 3;
  const IsrResult r = sgm::spade::compute_isr(gx, y, opt);
  for (sgm::graph::NodeId p = 0; p < n; ++p) {
    const auto nbrs = gx.neighbors(p);
    double mean = 0;
    for (auto q : nbrs) mean += sgm::spade::isr_edge_score(r, p, q);
    mean /= static_cast<double>(nbrs.size());
    EXPECT_NEAR(r.node_score[p], mean, 1e-12);
  }
}

TEST(Isr, MismatchedGraphSizesThrow) {
  const Matrix x = line_points(10);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 2;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  const Matrix y = line_points(8);
  EXPECT_THROW(sgm::spade::compute_isr(gx, y, {}), std::invalid_argument);
}

TEST(Isr, DeterministicForFixedSeed) {
  const std::size_t n = 50;
  const Matrix x = line_points(n);
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) y(i, 0) = std::cos(3 * x(i, 0));
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 4;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.seed = 1234;
  const IsrResult a = sgm::spade::compute_isr(gx, y, opt);
  const IsrResult b = sgm::spade::compute_isr(gx, y, opt);
  ASSERT_EQ(a.node_score.size(), b.node_score.size());
  for (std::size_t i = 0; i < a.node_score.size(); ++i)
    EXPECT_DOUBLE_EQ(a.node_score[i], b.node_score[i]);
}

TEST(Isr, ConvergesToDenseGeneralizedEigenpairs) {
  // Representative-shaped fixture: 2-D coordinates, one column of losses in
  // which every 10th value nearly duplicates its predecessor (G_Y weights up
  // to ~1e6). The oracle solves the same pencil L_X v = l (L_Y + sI) v
  // densely: C C^T = L_Y + sI, eig(C^-1 L_X C^-T) = (l, u), v = C^-T u.
  // Subspace iteration converges like (l_4 / l_3)^iterations = 0.83^it, so
  // 150 iterations leave it far below the tolerances.
  const std::size_t n = 150;
  const int r = 3;
  sgm::util::Rng rng(17);
  Matrix x(n, 2);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform();
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i)
    y(i, 0) = i % 10 == 9 ? y(i - 1, 0) + 1e-6
                          : std::sin(6.0 * x(i, 0)) + x(i, 1);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 8;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.rank = r;
  opt.subspace_iterations = 150;
  const CsrGraph gy = sgm::graph::build_knn_graph(y, opt.y_knn);

  // The shift compute_isr_graphs applies: opt.shift x mean weighted degree.
  double mean_deg = 0.0;
  for (sgm::graph::NodeId u = 0; u < n; ++u) mean_deg += gy.weighted_degree(u);
  const double sigma = opt.shift * mean_deg / static_cast<double>(n);
  Matrix b = sgm::graph::laplacian_dense(gy);
  for (std::size_t i = 0; i < n; ++i) b(i, i) += sigma;
  const Matrix c = sgm::testutil::dense_cholesky(b);
  const Matrix lx = sgm::graph::laplacian_dense(gx);
  Matrix w(n, n);  // C^-1 L_X, column by column
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = lx(i, j);
    col = sgm::testutil::lower_solve(c, col);
    for (std::size_t i = 0; i < n; ++i) w(i, j) = col[i];
  }
  Matrix m(n, n);  // C^-1 L_X C^-T = (C^-1 W^T)^T
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> row(n);
    for (std::size_t i = 0; i < n; ++i) row[i] = w(j, i);
    row = sgm::testutil::lower_solve(c, row);
    for (std::size_t i = 0; i < n; ++i) m(j, i) = row[i];
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double s = 0.5 * (m(i, j) + m(j, i));
      m(i, j) = m(j, i) = s;
    }
  const sgm::graph::EigenPairs eig = sgm::graph::jacobi_eigensymm(m);
  std::vector<double> ref_values(r);
  Matrix ref_vr(n, r);  // sqrt(l)-scaled generalized eigenvectors
  for (int j = 0; j < r; ++j) {
    const std::size_t src = n - 1 - static_cast<std::size_t>(j);
    ref_values[j] = eig.values[src];
    std::vector<double> u(n);
    for (std::size_t i = 0; i < n; ++i) u[i] = eig.vectors(i, src);
    u = sgm::testutil::lower_transpose_solve(c, u);
    for (std::size_t i = 0; i < n; ++i)
      ref_vr(i, j) = u[i] * std::sqrt(ref_values[j]);
  }
  std::vector<double> ref_score(n, 0.0);
  double max_score = 0.0;
  for (sgm::graph::NodeId p = 0; p < n; ++p) {
    const auto nbrs = gx.neighbors(p);
    for (sgm::graph::NodeId q : nbrs)
      for (int j = 0; j < r; ++j) {
        const double d = ref_vr(p, j) - ref_vr(q, j);
        ref_score[p] += d * d;
      }
    ref_score[p] /= static_cast<double>(nbrs.size());
    max_score = std::max(max_score, ref_score[p]);
  }

  const IsrResult got = sgm::spade::compute_isr(gx, y, opt);
  ASSERT_EQ(got.eigenvalues.size(), static_cast<std::size_t>(r));
  for (int j = 0; j < r; ++j)
    EXPECT_NEAR(got.eigenvalues[j], ref_values[j], 1e-6 * ref_values[j])
        << "eigenvalue " << j;
  // Node scores are defined by the top-r subspace only when it is separated
  // from the rest of the spectrum; this fixture is chosen so it is.
  const double gap = (eig.values[n - r] - eig.values[n - r - 1]) /
                     eig.values[n - r];
  ASSERT_GT(gap, 1e-3);
  for (std::size_t p = 0; p < n; ++p)
    EXPECT_NEAR(got.node_score[p], ref_score[p], 1e-6 * max_score)
        << "node " << p;
}

}  // namespace
