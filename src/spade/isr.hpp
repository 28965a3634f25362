#pragma once
// SPADE-style spectral stability scoring — stage S3 of SGM-PINN.
//
// Given an input graph G_X over samples and the model outputs Y at those
// samples, the Inverse Stability Rating (ISR) ranks how violently the
// model's output manifold stretches the input manifold (Cheng et al., ICML
// 2021; Lemmas 2-3 of the SGM-PINN paper):
//
//   ISR_F            = lambda_max(L_Y^+ L_X)            (>= best Lipschitz K*)
//   ISR_F(p, q)      = || V_r^T e_pq ||_2^2,  V_r = [v_1 sqrt(l_1), ...]
//   ISR_F(p)         = mean over q in N_X(p) of ISR_F(p, q)
//
// where (l_i, v_i) are the top generalized eigenpairs of L_X v = l L_Y v.
// High node scores flag regions whose losses change fastest w.r.t. input
// perturbations — exactly where a cluster-averaged loss estimate is least
// trustworthy, so SGM-S adds weight there.

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/knn.hpp"
#include "tensor/matrix.hpp"

namespace sgm::spade {

struct IsrOptions {
  int rank = 8;               ///< r: number of generalized eigenpairs
  int subspace_iterations = 10;
  /// Relative diagonal shift added to L_Y before solving (regularizes the
  /// singular Laplacian; expressed as a fraction of its mean degree).
  double shift = 1e-4;
  /// kNN configuration for the output graph G_Y built over Y rows.
  graph::KnnGraphOptions y_knn{};
  std::uint64_t seed = 99;
};

struct IsrResult {
  /// Per-node stability score (Eq. 11); larger = less stable.
  std::vector<double> node_score;
  /// Top generalized eigenvalues, descending. Front() approximates ISR_F.
  std::vector<double> eigenvalues;
  /// n x r matrix of sqrt(lambda)-scaled eigenvectors (Lemma 3's V_r).
  tensor::Matrix vr;

  double isr_max() const {
    return eigenvalues.empty() ? 0.0 : eigenvalues.front();
  }
};

/// Scores stability of the map X -> Y where G_X is the (sub)graph over the
/// scored samples and `y` holds the model outputs/losses per sample
/// (n x m). G_Y is built internally as a kNN graph over rows of y.
IsrResult compute_isr(const graph::CsrGraph& gx, const tensor::Matrix& y,
                      const IsrOptions& options);

/// Same, with a caller-provided output graph.
IsrResult compute_isr_graphs(const graph::CsrGraph& gx,
                             const graph::CsrGraph& gy,
                             const IsrOptions& options);

/// Edge score ISR_F(p, q) for an arbitrary node pair from a result's V_r.
double isr_edge_score(const IsrResult& r, graph::NodeId p, graph::NodeId q);

}  // namespace sgm::spade
