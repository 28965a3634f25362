#pragma once
// Weighted undirected graph in compressed-sparse-row form.
//
// The graph is the probabilistic graphical model (PGM) of the paper: nodes
// are collocation points, edge weights encode conditional dependence
// (inverse distance on the kNN graph). Unique edges are stored once
// (u < v), so per-edge quantities (effective resistance, ISR scores) live in
// plain arrays aligned with edges(). The CSR adjacency carries each slot's
// edge weight beside its neighbor id, so a Laplacian sweep reads both
// contiguously instead of looking the weight up through the edge list.

#include <cstdint>
#include <span>
#include <vector>

namespace sgm::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  double w = 1.0;
};

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds from an edge list over `num_nodes` nodes. Self-loops are
  /// dropped; duplicate (u,v) pairs have their weights summed. Weights must
  /// be positive. A list that is already canonical (u < v, strictly sorted,
  /// as symmetrize_edges leaves it) is taken as is, without a re-sort.
  static CsrGraph from_edges(NodeId num_nodes, std::vector<Edge> edges);

  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }

  const std::vector<Edge>& edges() const { return edges_; }
  const Edge& edge(EdgeId e) const { return edges_[e]; }

  /// Neighbor node ids of `u`.
  std::span<const NodeId> neighbors(NodeId u) const {
    return {nbr_.data() + offsets_[u], nbr_.data() + offsets_[u + 1]};
  }
  /// Edge weights aligned with neighbors(u): the weight of the edge
  /// (u, neighbors(u)[i]) is neighbor_weights(u)[i].
  std::span<const double> neighbor_weights(NodeId u) const {
    return {nbr_w_.data() + offsets_[u], nbr_w_.data() + offsets_[u + 1]};
  }

  std::size_t degree(NodeId u) const { return offsets_[u + 1] - offsets_[u]; }
  double weighted_degree(NodeId u) const { return wdeg_[u]; }

  double average_degree() const;
  double total_weight() const;

  /// Component label per node (0-based) and the number of components.
  std::pair<std::vector<NodeId>, NodeId> connected_components() const;

  /// True when every node is reachable from node 0 (or the graph is empty).
  bool is_connected() const;

  /// Heavy invariant sweep (SGM_CHECK-based; see util/check.hpp): canonical
  /// u < v sorted unique edge list with positive weights, consistent CSR
  /// offsets/adjacency, symmetric neighbor lists (every edge (u, v) appears
  /// once in u's row and once in v's, each slot carrying the edge's weight),
  /// and weighted degrees that match the edge list. Throws util::CheckError
  /// on the first violation. from_edges runs it automatically when
  /// SGM_AUDIT=1; tier-1 tests call it directly.
  void audit() const;

 private:
  NodeId num_nodes_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::size_t> offsets_;  // n+1
  std::vector<NodeId> nbr_;
  std::vector<double> nbr_w_;  // per adjacency slot, aligned with nbr_
  std::vector<double> wdeg_;
};

/// The raw-array form of CsrGraph::audit(), so tests can exercise the audit
/// on deliberately malformed structures (from_edges never produces one).
void audit_csr_arrays(NodeId num_nodes, const std::vector<Edge>& edges,
                      const std::vector<std::size_t>& offsets,
                      const std::vector<NodeId>& nbr,
                      const std::vector<double>& nbr_w,
                      const std::vector<double>& wdeg);

}  // namespace sgm::graph
