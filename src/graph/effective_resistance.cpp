#include "graph/effective_resistance.hpp"

#include <cmath>
#include <stdexcept>

#include "graph/lanczos.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sgm::graph {

using tensor::Matrix;

namespace {

Matrix exact_embedding(const CsrGraph& g) {
  const std::size_t n = g.num_nodes();
  EigenPairs eig = jacobi_eigensymm(laplacian_dense(g));
  // Skip (near-)zero eigenvalues — the constant nullspace contributes
  // nothing to e_uv^T L^+ e_uv.
  const double cutoff = 1e-9 * std::max(1.0, std::fabs(eig.values.back()));
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < eig.values.size(); ++i)
    if (eig.values[i] > cutoff) keep.push_back(i);
  Matrix z(n, keep.size());
  for (std::size_t c = 0; c < keep.size(); ++c) {
    const double s = 1.0 / std::sqrt(eig.values[keep[c]]);
    for (std::size_t r = 0; r < n; ++r)
      z(r, c) = eig.vectors(r, keep[c]) * s;
  }
  return z;
}

// HyperEF-style smoothed random embedding: random vectors smoothed by
// damped Richardson iteration x <- x - sigma * L x with sigma chosen from
// the spectral bound lambda_max(L) <= 2 * max weighted degree. Richardson
// (rather than degree-normalized Jacobi) is essential here: it damps each
// Laplacian mode at a rate proportional to its *global* eigenvalue, so the
// slow modes across weak cuts — which carry the high-effective-resistance
// signal — survive the smoothing while high-frequency content dies.
Matrix smoothed_embedding(const CsrGraph& g, const ErOptions& opt) {
  const std::size_t n = g.num_nodes();
  const int t = std::max(1, opt.num_vectors);
  util::Rng rng(opt.seed);
  Matrix z(n, t);
  double d_max = 0.0;
  for (NodeId u = 0; u < n; ++u)
    d_max = std::max(d_max, g.weighted_degree(u));
  if (d_max <= 0.0) d_max = 1.0;
  const double sigma = (2.0 / 3.0) / (2.0 * d_max);
  // Random initial vectors are drawn serially (identical rng stream for any
  // thread count); the Richardson sweeps — the expensive part — then run
  // per column on the pool, each with its own workspace.
  std::vector<Vec> init(static_cast<std::size_t>(t), Vec(n));
  for (int col = 0; col < t; ++col) {
    Vec& x = init[static_cast<std::size_t>(col)];
    for (auto& v : x) v = rng.uniform(-0.5, 0.5);
    deflate_constant(x);
  }
  const double s = 1.0 / std::sqrt(static_cast<double>(t));
  util::parallel_for_chunks(
      0, static_cast<std::size_t>(t), 1, opt.num_threads,
      [&](std::size_t b, std::size_t e, std::size_t) {
        Vec y(n);
        for (std::size_t col = b; col < e; ++col) {
          Vec& x = init[col];
          for (int it = 0; it < opt.smoothing_iterations; ++it) {
            laplacian_apply(g, x, y);
            for (std::size_t i = 0; i < n; ++i) x[i] -= sigma * y[i];
            deflate_constant(x);
          }
          for (std::size_t r = 0; r < n; ++r) z(r, col) = x[r] * s;
        }
      });
  return z;
}

}  // namespace

Matrix effective_resistance_embedding(const CsrGraph& g,
                                      const ErOptions& options) {
  if (g.num_nodes() == 0) return Matrix();
  switch (options.method) {
    case ErMethod::kExact: return exact_embedding(g);
    case ErMethod::kSmoothed: return smoothed_embedding(g, options);
  }
  throw std::logic_error("effective_resistance_embedding: bad method");
}

double er_from_embedding(const Matrix& z, NodeId u, NodeId v) {
  double s = 0.0;
  const double* zu = z.row(u);
  const double* zv = z.row(v);
  for (std::size_t c = 0; c < z.cols(); ++c) {
    const double d = zu[c] - zv[c];
    s += d * d;
  }
  return s;
}

std::vector<double> edge_effective_resistance(const CsrGraph& g,
                                              const Matrix& z,
                                              std::size_t num_threads) {
  std::vector<double> er(g.num_edges());
  util::parallel_for(0, g.num_edges(), num_threads, [&](std::size_t e) {
    const EdgeId id = static_cast<EdgeId>(e);
    er[e] = er_from_embedding(z, g.edge(id).u, g.edge(id).v);
  });
  return er;
}

double exact_effective_resistance(const CsrGraph& g, NodeId u, NodeId v) {
  Matrix z = exact_embedding(g);
  return er_from_embedding(z, u, v);
}

}  // namespace sgm::graph
