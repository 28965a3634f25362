#pragma once
// Graph Laplacian operators. The Laplacian is kept implicit (matrix-free):
// L x = D x - A x computed straight off the CSR adjacency, which is all
// Lanczos and ISR need. The smoothed-embedding ER estimator sweeps blocks of
// columns itself, rounding each element as laplacian_apply and
// deflate_constant would on that column alone.

#include <vector>

#include "graph/csr.hpp"
#include "tensor/matrix.hpp"

namespace sgm::graph {

using Vec = std::vector<double>;

/// y = L x for the weighted Laplacian of `g`.
void laplacian_apply(const CsrGraph& g, const Vec& x, Vec& y);

/// Dense Laplacian (n x n) — test/diagnostic use only.
tensor::Matrix laplacian_dense(const CsrGraph& g);

/// x_i -= mean(x), the mean summed in index order: projects out the
/// constant nullspace of a connected Laplacian. The smoothed ER estimator
/// deflates each of its columns in exactly this order.
void deflate_constant(Vec& x);

/// Euclidean inner product / norm helpers used across the solvers.
double dot(const Vec& a, const Vec& b);
double norm2(const Vec& a);

}  // namespace sgm::graph
