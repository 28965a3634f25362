#pragma once
// Exact k-nearest-neighbor search and kNN-graph (PGM) construction — stage
// S1 of the SGM-PINN pipeline.
//
// Two exact back-ends are provided: a kd-tree (the PGM's search; O(N log N)
// build, near-O(log N) queries in the low spatial dimensions PINN point
// clouds live in) and a brute-force scan used as the ground truth in tests.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "tensor/matrix.hpp"

namespace sgm::graph {

/// Result of a k-NN query: neighbor indices with squared distances,
/// ascending by (distance, index). Ties are broken canonically on the node
/// index, so the selected set is a pure function of the point coordinates —
/// never of tree layout or traversal order: the kd-tree selects exactly the
/// brute-force reference's neighbors, duplicate points included.
struct KnnResult {
  std::vector<NodeId> index;
  std::vector<double> dist2;
};

/// Exact kd-tree over the rows of a point matrix (n x d).
class KdTree {
 public:
  /// (dist2, index) pairs, ascending like KnnResult.
  using Neighbors = std::vector<std::pair<double, NodeId>>;

  /// Builds over `points` (which is copied). d must be >= 1.
  explicit KdTree(const tensor::Matrix& points);

  /// k nearest neighbors of `query` (not excluding any index).
  KnnResult query(const double* query, std::size_t k) const;

  /// k nearest neighbors of point `i`, excluding `i` itself, left in `out`
  /// ascending by (dist2, index). `out` is overwritten and its capacity
  /// reused, so a bulk sweep allocates once per worker, not once per query.
  void query_point(NodeId i, std::size_t k, Neighbors& out) const;

  std::size_t size() const { return n_; }
  std::size_t dim() const { return d_; }

 private:
  struct Node {
    std::int32_t left = -1, right = -1;
    std::uint32_t begin = 0, end = 0;  // leaf range into order_
    std::uint16_t axis = 0;
    bool leaf = false;
    double split = 0.0;
  };

  std::int32_t build(std::uint32_t begin, std::uint32_t end, int depth);
  void search(std::int32_t node, const double* q, std::size_t k,
              std::int64_t exclude, Neighbors& heap) const;

  std::size_t n_ = 0, d_ = 0;
  tensor::Matrix pts_;
  std::vector<NodeId> order_;
  std::vector<Node> nodes_;
  static constexpr std::uint32_t kLeafSize = 16;
};

/// Brute-force exact k-NN (reference implementation for tests).
KnnResult knn_brute_force(const tensor::Matrix& points, const double* query,
                          std::size_t k, std::int64_t exclude = -1);

/// How kNN edge weights encode conditional dependence.
enum class KnnWeight {
  kUnit,     ///< w = 1
  kInverse,  ///< w = 1 / (dist + eps)   (paper: inverse distance)
  kGauss,    ///< w = exp(-dist^2 / (2 sigma^2)), sigma = mean kNN distance
};

struct KnnGraphOptions {
  std::size_t k = 10;
  KnnWeight weight = KnnWeight::kInverse;
  double inverse_eps = 1e-12;
  /// When true, keep only the mutual-kNN symmetrization; otherwise the union
  /// (a directed edge either way becomes one undirected edge). Union is the
  /// default — it keeps the PGM connected at small k.
  bool mutual = false;
  /// Worker threads for the per-point queries and the edge weighting; the
  /// symmetrize/sort/dedup is serial. 0 = util::resolve_threads default
  /// (hardware concurrency / SGM_NUM_THREADS), 1 = serial. Any value
  /// produces byte-identical graphs (see util/thread_pool.hpp's determinism
  /// contract).
  std::size_t num_threads = 0;
};

/// Builds the undirected kNN PGM over rows of `points` (n x d). The k
/// neighbors of every point go straight into one flat n x k edge list,
/// which is weighted, optionally mutual-filtered, then symmetrized in place.
CsrGraph build_knn_graph(const tensor::Matrix& points,
                         const KnnGraphOptions& options);

/// Canonicalizes every edge to u <= v, sorts by (u, v) and drops duplicate
/// pairs, keeping one representative per pair. A counting sort by u, then
/// each u's bucket by v, insertion-sorted when short (a kNN list's buckets
/// hold about 2k edges), so a kNN list sorts in linear time. Which
/// duplicate survives is unspecified: the bytes are fixed when duplicates
/// carry bit-equal weights, as the two directions of a kNN pair do. Serial.
void symmetrize_edges(std::vector<Edge>& edges);

}  // namespace sgm::graph
