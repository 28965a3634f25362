#pragma once
// Incrementally-maintained kNN PGM — the S1 half of the incremental refresh
// engine (see docs/ARCHITECTURE.md, "Incremental refresh").
//
// The engine caches every point's kNN result between refreshes. When a
// refresh moves only a subset of points (the *dirty* set — in SGM-PINN the
// points whose model-output features drifted), only the points whose kNN
// result could actually have changed are re-queried:
//
//   affected(D) = D                                  (they moved)
//             ∪ { i : knn_old(i) ∩ D ≠ ∅ }           (a neighbor moved away)
//             ∪ { i : min_{j∈D} d_new(i,j) ≤ r_i }   (a point moved into
//                                                     i's kth-NN ball)
//
// The third set is found with an exact kd-tree over just the dirty points'
// new positions (an any-within-radius existence query per clean point).
// This set is *provably complete*: every other point's candidate multiset
// within its old kth-NN radius is unchanged, and kNN selection breaks ties
// canonically on (distance, index), so splicing cached results next to
// fresh queries reproduces the full rebuild bit-for-bit.

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/csr.hpp"
#include "graph/knn.hpp"
#include "tensor/matrix.hpp"

namespace sgm::graph {

struct KnnUpdateStats {
  std::size_t dirty = 0;      ///< points whose rows changed
  std::size_t requeried = 0;  ///< points whose kNN lists were recomputed
};

class IncrementalKnnGraph {
 public:
  explicit IncrementalKnnGraph(KnnGraphOptions options);

  /// Full (re)build over `metric` (copied). The resulting graph is
  /// bit-identical to build_knn_graph over the same matrix and options.
  const CsrGraph& rebuild(const tensor::Matrix& metric);

  /// Moves the rows at `ids` (sorted, unique) to the rows of `rows`
  /// (|ids| x d, aligned) and updates the graph by localized re-query; the
  /// result is bit-identical to a full rebuild (see the file comment).
  const CsrGraph& update(const std::vector<NodeId>& ids,
                         const tensor::Matrix& rows,
                         KnnUpdateStats* stats = nullptr);

  bool built() const { return metric_.rows() > 0 || built_empty_; }
  const CsrGraph& graph() const { return graph_; }
  const tensor::Matrix& metric() const { return metric_; }
  std::size_t size() const { return metric_.rows(); }

 private:
  std::vector<NodeId> affected_points(const std::vector<NodeId>& ids,
                                      const tensor::Matrix& rows) const;
  void finalize_graph();

  KnnGraphOptions opt_;
  std::size_t k_ = 0;
  bool built_empty_ = false;
  tensor::Matrix metric_;
  std::vector<KnnResult> nn_;
  std::unique_ptr<KdTree> kd_;
  CsrGraph graph_;
};

}  // namespace sgm::graph
