#include "core/cluster_store.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sgm::core {

ClusterStore::ClusterStore(graph::Clustering clustering)
    : clustering_(std::move(clustering)),
      members_(clustering_.num_clusters) {
  for (std::uint32_t v = 0; v < clustering_.node_cluster.size(); ++v)
    members_[clustering_.node_cluster[v]].push_back(v);
}

ClusterStore::Representatives ClusterStore::sample_representatives(
    double rep_fraction, util::Rng& rng) const {
  if (rep_fraction <= 0.0 || rep_fraction > 1.0)
    throw std::invalid_argument(
        "sample_representatives: rep_fraction must be in (0, 1]");
  Representatives reps;
  for (std::uint32_t c = 0; c < num_clusters(); ++c) {
    const auto& m = members_[c];
    const auto want = static_cast<std::uint32_t>(std::max<double>(
        1.0, std::ceil(rep_fraction * static_cast<double>(m.size()))));
    std::vector<std::uint32_t> local = rng.sample_without_replacement(
        static_cast<std::uint32_t>(m.size()), want);
    for (std::uint32_t li : local) {
      reps.node.push_back(m[li]);
      reps.cluster.push_back(c);
    }
  }
  return reps;
}

}  // namespace sgm::core
