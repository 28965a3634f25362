#include "graph/pcg.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>

namespace sgm::graph {

namespace {

// PCG on an operator `apply(x, y)`: y = A x for an SPD (or deflated-SPSD)
// A, with a diagonal preconditioner.
PcgResult pcg_solve(const std::function<void(const Vec&, Vec&)>& apply,
                    const Vec& diagonal, const Vec& b,
                    const PcgOptions& options, bool deflate, const Vec* x0) {
  const std::size_t n = b.size();
  if (x0 != nullptr && x0->size() != n)
    throw std::invalid_argument("pcg_solve: x0 size mismatch");
  PcgResult result;
  result.x.assign(n, 0.0);

  Vec r = b;
  if (deflate) deflate_constant(r);
  const double bnorm = norm2(r);
  if (bnorm == 0.0) {
    result.converged = true;
    return result;
  }

  Vec z(n), p(n), ap(n);
  if (x0 != nullptr) {
    // Warm start: x = x0, r = b - A x0. Convergence stays relative to ||b||,
    // so an already-converged x0 exits below with zero iterations.
    result.x = *x0;
    if (deflate) deflate_constant(result.x);
    apply(result.x, ap);
    if (deflate) deflate_constant(ap);
    for (std::size_t i = 0; i < n; ++i) r[i] -= ap[i];
    result.residual_norm = norm2(r);
    if (result.residual_norm <= options.rel_tol * bnorm) {
      result.converged = true;
      return result;
    }
  }
  auto precondition = [&](const Vec& rin, Vec& zout) {
    for (std::size_t i = 0; i < n; ++i)
      zout[i] = diagonal[i] > 0.0 ? rin[i] / diagonal[i] : rin[i];
    if (deflate) deflate_constant(zout);
  };

  precondition(r, z);
  p = z;
  double rz = dot(r, z);

  for (int it = 0; it < options.max_iterations; ++it) {
    apply(p, ap);
    if (deflate) deflate_constant(ap);
    const double pap = dot(p, ap);
    if (pap <= 0.0) break;  // lost positive-definiteness numerically
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      result.x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    result.iterations = it + 1;
    result.residual_norm = norm2(r);
    if (result.residual_norm <= options.rel_tol * bnorm) {
      result.converged = true;
      break;
    }
    precondition(r, z);
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  if (deflate) deflate_constant(result.x);
  return result;
}

}  // namespace

PcgResult pcg_solve_laplacian(const CsrGraph& g, const Vec& b,
                              const PcgOptions& options, const Vec* x0) {
  if (b.size() != g.num_nodes())
    throw std::invalid_argument("pcg_solve_laplacian: size mismatch");
  Vec diag = laplacian_diagonal(g);
  double shift = 0.0;
  if (options.diagonal_shift > 0.0) {
    double mean_deg = 0.0;
    for (double d : diag) mean_deg += d;
    mean_deg /= std::max<std::size_t>(1, diag.size());
    shift = options.diagonal_shift * mean_deg;
    for (double& d : diag) d += shift;
  }
  auto apply = [&g, shift](const Vec& x, Vec& y) {
    laplacian_apply(g, x, y);
    if (shift > 0.0)
      for (std::size_t i = 0; i < x.size(); ++i) y[i] += shift * x[i];
  };
  return pcg_solve(apply, diag, b, options, /*deflate=*/shift == 0.0, x0);
}

}  // namespace sgm::graph
