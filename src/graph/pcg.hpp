#pragma once
// Jacobi-preconditioned conjugate gradient for graph-Laplacian systems.
//
// Laplacians are singular (constant nullspace per connected component), so
// the solver deflates the constant from the right-hand side and from every
// iterate; on a connected graph this solves L x = b exactly in the range of
// L, which is what the effective-resistance computations need. (SPADE's
// shifted solves use the direct factor in graph/cholesky.hpp.)

#include "graph/laplacian.hpp"

namespace sgm::graph {

struct PcgOptions {
  double rel_tol = 1e-8;    ///< stop when ||r|| <= rel_tol * ||b||
  int max_iterations = 2000;
  /// Added to the diagonal (relative to mean degree) to regularize graphs
  /// that are disconnected or nearly so. 0 = pure Laplacian.
  double diagonal_shift = 0.0;
};

struct PcgResult {
  Vec x;
  int iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

/// Solves (L + shift*I) x = b with Jacobi preconditioning and constant-mode
/// deflation (deflation is skipped when shift > 0, where the operator is
/// nonsingular). `x0` optionally warm-starts the iteration: convergence is
/// still judged against ||b|| (not the initial residual), so a warm start
/// whose residual already meets rel_tol returns after zero iterations — the
/// incremental effective-resistance path leans on this to skip columns the
/// graph update left untouched.
PcgResult pcg_solve_laplacian(const CsrGraph& g, const Vec& b,
                              const PcgOptions& options = {},
                              const Vec* x0 = nullptr);

}  // namespace sgm::graph
