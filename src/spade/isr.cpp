#include "spade/isr.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "graph/cholesky.hpp"
#include "graph/lanczos.hpp"
#include "graph/laplacian.hpp"
#include "util/rng.hpp"

namespace sgm::spade {

using graph::CsrGraph;
using graph::Vec;
using tensor::Matrix;

namespace {

// B-orthonormalizes the columns of V in place via modified Gram-Schmidt,
// where B-inner products are computed through apply_b.
void b_orthonormalize(Matrix& v,
                      const std::function<void(const Vec&, Vec&)>& apply_b) {
  const std::size_t n = v.rows(), r = v.cols();
  Vec col(n), bcol(n);
  std::vector<Vec> done;    // previously normalized columns
  std::vector<Vec> done_b;  // and their B-images
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t i = 0; i < n; ++i) col[i] = v(i, j);
    for (std::size_t p = 0; p < done.size(); ++p) {
      const double c = graph::dot(done_b[p], col);
      for (std::size_t i = 0; i < n; ++i) col[i] -= c * done[p][i];
    }
    apply_b(col, bcol);
    double nb = std::sqrt(std::max(0.0, graph::dot(col, bcol)));
    if (nb < 1e-14) {
      // Degenerate direction: keep it tiny but nonzero for the Ritz step.
      nb = 1.0;
    }
    for (std::size_t i = 0; i < n; ++i) col[i] /= nb;
    apply_b(col, bcol);
    done.push_back(col);
    done_b.push_back(bcol);
    for (std::size_t i = 0; i < n; ++i) v(i, j) = col[i];
  }
}

}  // namespace

IsrResult compute_isr_graphs(const CsrGraph& gx, const CsrGraph& gy,
                             const IsrOptions& options) {
  if (gx.num_nodes() != gy.num_nodes())
    throw std::invalid_argument("compute_isr: graph size mismatch");
  const std::size_t n = gx.num_nodes();
  IsrResult out;
  if (n == 0) return out;
  const int r =
      std::max(1, std::min<int>(options.rank, static_cast<int>(n) - 1));

  // Regularized output Laplacian L_Y + shift*mean_deg*I, so the solves are
  // well posed even when G_Y is disconnected. One direct factor serves all
  // rank x subspace-iteration solves.
  double mean_deg_y = 0.0;
  for (graph::NodeId u = 0; u < n; ++u) mean_deg_y += gy.weighted_degree(u);
  mean_deg_y /= static_cast<double>(n);
  const double shift =
      std::max(1e-12, options.shift * std::max(mean_deg_y, 1e-12));

  auto apply_lx = [&gx](const Vec& x, Vec& y) {
    graph::laplacian_apply(gx, x, y);
  };
  auto apply_ly_shifted = [&gy, shift](const Vec& x, Vec& y) {
    graph::laplacian_apply(gy, x, y);
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += shift * x[i];
  };
  const graph::EnvelopeCholesky ly_factor(gy, shift);

  // --- Generalized subspace iteration for L_X v = lambda (L_Y + sI) v ---
  util::Rng rng(options.seed);
  Matrix v(n, r);
  for (std::size_t i = 0; i < v.size(); ++i) v.data()[i] = rng.normal();

  Vec col(n), w(n);
  std::vector<double> ritz_values(r, 0.0);
  for (int iter = 0; iter < options.subspace_iterations; ++iter) {
    // Z <- (L_Y + sI)^-1 L_X V
    Matrix z(n, r);
    for (int j = 0; j < r; ++j) {
      for (std::size_t i = 0; i < n; ++i) col[i] = v(i, j);
      apply_lx(col, w);
      ly_factor.solve(w, w);
      for (std::size_t i = 0; i < n; ++i) z(i, j) = w[i];
    }
    b_orthonormalize(z, apply_ly_shifted);

    // Rayleigh-Ritz on the B-orthonormal basis: A_r = Z^T L_X Z (r x r).
    Matrix ar(r, r);
    for (int j = 0; j < r; ++j) {
      for (std::size_t i = 0; i < n; ++i) col[i] = z(i, j);
      apply_lx(col, w);
      for (int i2 = 0; i2 < r; ++i2) {
        double s = 0.0;
        for (std::size_t i = 0; i < n; ++i) s += z(i, i2) * w[i];
        ar(i2, j) = s;
      }
    }
    // Symmetrize away the asymmetry rounding leaves in A_r.
    for (int a = 0; a < r; ++a)
      for (int b = a + 1; b < r; ++b) {
        const double s = 0.5 * (ar(a, b) + ar(b, a));
        ar(a, b) = s;
        ar(b, a) = s;
      }
    graph::EigenPairs ritz = graph::jacobi_eigensymm(ar);
    // Rotate the basis to Ritz vectors, descending eigenvalue order.
    Matrix rotated(n, r);
    for (int j = 0; j < r; ++j) {
      const int src = r - 1 - j;  // descending
      ritz_values[j] = ritz.values[src];
      for (std::size_t i = 0; i < n; ++i) {
        double s = 0.0;
        for (int l = 0; l < r; ++l) s += z(i, l) * ritz.vectors(l, src);
        rotated(i, j) = s;
      }
    }
    v = std::move(rotated);
  }

  out.eigenvalues.assign(ritz_values.begin(), ritz_values.end());
  for (double& ev : out.eigenvalues) ev = std::max(ev, 0.0);

  // V_r = [v_1 sqrt(l_1), ..., v_r sqrt(l_r)]
  out.vr = Matrix(n, r);
  for (int j = 0; j < r; ++j) {
    const double s = std::sqrt(out.eigenvalues[j]);
    for (std::size_t i = 0; i < n; ++i) out.vr(i, j) = v(i, j) * s;
  }

  // Node scores: mean edge score over the input-graph neighborhood (Eq. 11).
  out.node_score.assign(n, 0.0);
  for (graph::NodeId p = 0; p < n; ++p) {
    const auto nbrs = gx.neighbors(p);
    if (nbrs.empty()) continue;
    double acc = 0.0;
    for (graph::NodeId q : nbrs) {
      double s = 0.0;
      for (int j = 0; j < r; ++j) {
        const double d = out.vr(p, j) - out.vr(q, j);
        s += d * d;
      }
      acc += s;
    }
    out.node_score[p] = acc / static_cast<double>(nbrs.size());
  }
  return out;
}

IsrResult compute_isr(const CsrGraph& gx, const Matrix& y,
                      const IsrOptions& options) {
  if (y.rows() != gx.num_nodes())
    throw std::invalid_argument("compute_isr: y rows != graph nodes");
  CsrGraph gy = graph::build_knn_graph(y, options.y_knn);
  return compute_isr_graphs(gx, gy, options);
}

double isr_edge_score(const IsrResult& r, graph::NodeId p, graph::NodeId q) {
  double s = 0.0;
  for (std::size_t j = 0; j < r.vr.cols(); ++j) {
    const double d = r.vr(p, j) - r.vr(q, j);
    s += d * d;
  }
  return s;
}

}  // namespace sgm::spade
