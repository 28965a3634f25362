#pragma once
// Direct solves for shifted graph Laplacians: a reverse Cuthill–McKee (RCM)
// ordering plus an envelope (profile) Cholesky factor of L + sigma I.
//
// On the graphs SPADE solves against (kNN graphs over one column of losses)
// RCM packs every row's nonzeros into a band about k wide, so the factor
// has no fill outside that band: factoring costs O(sum of squared row
// envelopes) and each solve O(envelope). A factor is built once and then
// reused for every right-hand side, which is what the subspace iteration
// in spade/isr.* needs. Everything here is serial and deterministic.

#include <cstddef>
#include <vector>

#include "graph/csr.hpp"
#include "graph/laplacian.hpp"

namespace sgm::graph {

/// Reverse Cuthill–McKee ordering: `order[i]` is the node placed at
/// position i. Each connected component is ordered from a pseudo-peripheral
/// start node found by George–Liu level-structure search; components follow
/// each other in order of their smallest node id, and the whole sequence is
/// reversed at the end. Ties (start nodes, neighbour visit order) break by
/// degree, then node id, so the result is a pure function of the graph.
std::vector<NodeId> rcm_order(const CsrGraph& g);

/// Envelope Cholesky factor C (A = C C^T) of A = P (L + sigma I) P^T, where
/// L is the weighted Laplacian of `g` and P the RCM permutation. Row i of C
/// is stored densely from its first nonzero column to the diagonal.
class EnvelopeCholesky {
 public:
  /// Factors L + sigma I. sigma must be positive and finite
  /// (SGM_CHECK_ARG); a pivot that comes out non-positive or non-finite
  /// (weights so large or non-finite that sigma is lost to rounding)
  /// throws util::CheckError.
  EnvelopeCholesky(const CsrGraph& g, double sigma);

  /// x = (L + sigma I)^{-1} b. `x` is resized to n; it may alias `b`.
  void solve(const Vec& b, Vec& x) const;

  /// Stored off-diagonal entries: sum over rows of (i - first column).
  std::size_t envelope() const { return values_.size() - order_.size(); }

 private:
  std::vector<NodeId> order_;          // position -> node
  std::vector<std::size_t> first_;     // first stored column of each row
  std::vector<std::size_t> row_ptr_;   // values_ offset of (i, first_[i])
  std::vector<double> values_;         // rows back to back, diagonal last
};

}  // namespace sgm::graph
