#pragma once
// Cluster bookkeeping between S2 (LRD decomposition) and S4 (epoch
// building): member lists, sizes, and the per-cluster representative
// sampling (the "r% of points per cluster" whose losses stand in for the
// whole cluster).

#include <cstdint>
#include <vector>

#include "graph/lrd.hpp"
#include "util/rng.hpp"

namespace sgm::core {

class ClusterStore {
 public:
  ClusterStore() = default;
  explicit ClusterStore(graph::Clustering clustering);

  std::uint32_t num_clusters() const { return clustering_.num_clusters; }
  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(clustering_.node_cluster.size());
  }

  std::uint32_t cluster_of(std::uint32_t node) const {
    return clustering_.node_cluster[node];
  }
  const std::vector<std::uint32_t>& members(std::uint32_t cluster) const {
    return members_[cluster];
  }
  std::uint32_t size(std::uint32_t cluster) const {
    return static_cast<std::uint32_t>(members_[cluster].size());
  }
  const graph::Clustering& clustering() const { return clustering_; }

  /// Draws ceil(rep_fraction * size) representatives (at least 1) from each
  /// cluster, without replacement. Returns a flat index list plus, aligned
  /// with it, the cluster id of each representative.
  struct Representatives {
    std::vector<std::uint32_t> node;     ///< dataset indices
    std::vector<std::uint32_t> cluster;  ///< owning cluster per entry
  };
  Representatives sample_representatives(double rep_fraction,
                                         util::Rng& rng) const;

 private:
  graph::Clustering clustering_;
  std::vector<std::vector<std::uint32_t>> members_;
};

}  // namespace sgm::core
