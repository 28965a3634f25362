#include "graph/effective_resistance.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

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

// Columns swept together as one group: per adjacency slot, one neighbor id
// and one weight feed kGroupWidth multiply-subtracts. The registered t = 12
// splits into three groups.
constexpr std::size_t kGroupWidth = 4;

// `iterations` Richardson sweeps over one group of G = kGroupWidth columns,
// held row-major in x (n x G); y is scratch of the same shape. Returns whichever of the two
// holds the result. Each element sees exactly the operation order of
// laplacian_apply then deflate_constant on its own column: acc = wdeg(u) x_u,
// acc -= w x_v in CSR neighbor order, x_u - sigma acc, then the column mean
// summed in index order and subtracted. Columns never mix, so the result is
// bit-identical for any grouping and any thread count, and a zero column
// padding a tail group stays zero without touching the others.
double* sweep_group(const CsrGraph& g, double sigma, int iterations,
                    double* x, double* y) {
  constexpr std::size_t G = kGroupWidth;
  const std::size_t n = g.num_nodes();
  for (int it = 0; it < iterations; ++it) {
    double sum[G] = {};
    for (NodeId u = 0; u < n; ++u) {
      const auto nbrs = g.neighbors(u);
      const auto w = g.neighbor_weights(u);
      const double du = g.weighted_degree(u);
      const double* xu = x + std::size_t{u} * G;
      double acc[G];
      for (std::size_t c = 0; c < G; ++c) acc[c] = du * xu[c];
      for (std::size_t s = 0; s < nbrs.size(); ++s) {
        const double* xv = x + std::size_t{nbrs[s]} * G;
        for (std::size_t c = 0; c < G; ++c) acc[c] -= w[s] * xv[c];
      }
      double* yu = y + std::size_t{u} * G;
      for (std::size_t c = 0; c < G; ++c) {
        yu[c] = xu[c] - sigma * acc[c];
        sum[c] += yu[c];
      }
    }
    double mean[G];
    for (std::size_t c = 0; c < G; ++c)
      mean[c] = sum[c] / static_cast<double>(n);
    for (std::size_t i = 0; i < n * G; i += G)
      for (std::size_t c = 0; c < G; ++c) y[i + c] -= mean[c];
    std::swap(x, y);
  }
  return x;
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
  const std::size_t t = static_cast<std::size_t>(std::max(1, opt.num_vectors));
  util::Rng rng(opt.seed);
  Matrix z(n, t);
  double d_max = 0.0;
  for (NodeId u = 0; u < n; ++u)
    d_max = std::max(d_max, g.weighted_degree(u));
  if (d_max <= 0.0) d_max = 1.0;
  const double sigma = (2.0 / 3.0) / (2.0 * d_max);
  // Group j holds columns [j G, j G + G) and owns 2 n G doubles of `work`
  // from offset 2 n j G: its row-major n x G block, then the sweep's scratch
  // block. Columns past t pad the last group with zeros.
  constexpr std::size_t G = kGroupWidth;
  const std::size_t groups = (t + G - 1) / G;
  std::vector<double> work(2 * n * G * groups);
  // Random initial vectors are drawn serially, column by column (one rng
  // stream for any thread count), and deflated like deflate_constant.
  for (std::size_t col = 0; col < t; ++col) {
    double* x = work.data() + 2 * n * (col - col % G) + col % G;
    for (std::size_t r = 0; r < n; ++r) x[r * G] = rng.uniform(-0.5, 0.5);
    double mean = 0.0;
    for (std::size_t r = 0; r < n; ++r) mean += x[r * G];
    mean /= static_cast<double>(n);
    for (std::size_t r = 0; r < n; ++r) x[r * G] -= mean;
  }
  // The Richardson sweeps — the expensive part — run one group per pool
  // task, so at most `groups` workers share them.
  const double s = 1.0 / std::sqrt(static_cast<double>(t));
  util::parallel_for_chunks(
      0, groups, 1, opt.num_threads,
      [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t j = b; j < e; ++j) {
          const std::size_t c0 = j * G, real = std::min(G, t - c0);
          double* x = work.data() + 2 * n * c0;
          x = sweep_group(g, sigma, opt.smoothing_iterations, x, x + n * G);
          for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < real; ++c)
              z(r, c0 + c) = x[r * G + c] * s;
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
