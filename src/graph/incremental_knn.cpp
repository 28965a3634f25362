#include "graph/incremental_knn.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace sgm::graph {

using tensor::Matrix;

namespace {
constexpr std::size_t kGrain = 256;
}

IncrementalKnnGraph::IncrementalKnnGraph(KnnGraphOptions options)
    : opt_(std::move(options)) {}

void IncrementalKnnGraph::finalize_graph() {
  const std::size_t n = metric_.rows();
  const double sigma = knn_detail::mean_knn_distance(nn_, opt_.num_threads);
  graph_ = knn_detail::graph_from_nn(nn_, n, k_, opt_, sigma);
}

const CsrGraph& IncrementalKnnGraph::rebuild(const Matrix& metric) {
  metric_ = metric;
  const std::size_t n = metric_.rows();
  if (n == 0) {
    built_empty_ = true;
    nn_.clear();
    kd_.reset();
    graph_ = CsrGraph();
    return graph_;
  }
  k_ = std::min(opt_.k, n - 1);
  nn_.assign(n, KnnResult{});
  kd_ = std::make_unique<KdTree>(metric_);
  util::parallel_for_chunks(
      0, n, kGrain, opt_.num_threads,
      [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t i = b; i < e; ++i)
          nn_[i] = kd_->query_point(static_cast<NodeId>(i), k_);
      });
  finalize_graph();
  return graph_;
}

std::vector<NodeId> IncrementalKnnGraph::affected_points(
    const std::vector<NodeId>& ids, const Matrix& rows) const {
  const std::size_t n = metric_.rows();
  std::vector<char> is_dirty(n, 0);
  for (NodeId id : ids) is_dirty[id] = 1;

  // Exact existence index over the dirty points' NEW positions.
  KdTree dirty_tree(rows);

  std::vector<char> affected(n, 0);
  util::parallel_for_chunks(
      0, n, kGrain, opt_.num_threads,
      [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t i = b; i < e; ++i) {
          if (is_dirty[i]) {
            affected[i] = 1;
            continue;
          }
          // (a) an old neighbor moved.
          bool hit = false;
          for (NodeId nb : nn_[i].index)
            if (is_dirty[nb]) {
              hit = true;
              break;
            }
          // (b) a dirty point's new position entered i's kth-NN ball
          // (inclusive: ties must re-query to stay canonical).
          if (!hit && k_ > 0)
            hit = dirty_tree.any_within(metric_.row(i), nn_[i].dist2.back());
          affected[i] = hit ? 1 : 0;
        }
      });

  std::vector<NodeId> out;
  for (std::size_t i = 0; i < n; ++i)
    if (affected[i]) out.push_back(static_cast<NodeId>(i));
  return out;
}

const CsrGraph& IncrementalKnnGraph::update(const std::vector<NodeId>& ids,
                                            const Matrix& rows,
                                            KnnUpdateStats* stats) {
  if (!built())
    throw std::logic_error("IncrementalKnnGraph::update before rebuild");
  const std::size_t n = metric_.rows();
  if (rows.rows() != ids.size() ||
      (rows.rows() > 0 && rows.cols() != metric_.cols()))
    throw std::invalid_argument("IncrementalKnnGraph::update: shape mismatch");
  if (!std::is_sorted(ids.begin(), ids.end()) ||
      std::adjacent_find(ids.begin(), ids.end()) != ids.end())
    throw std::invalid_argument(
        "IncrementalKnnGraph::update: ids must be sorted and unique");
  if (!ids.empty() && ids.back() >= n)
    throw std::out_of_range("IncrementalKnnGraph::update: id out of range");
  if (stats) *stats = KnnUpdateStats{};
  if (ids.empty() || n == 0) return graph_;

  // The affected set is decided against the OLD lists/radii and the NEW
  // dirty positions, before anything mutates.
  const std::vector<NodeId> affected = affected_points(ids, rows);

  for (std::size_t t = 0; t < ids.size(); ++t)
    for (std::size_t c = 0; c < metric_.cols(); ++c)
      metric_(ids[t], c) = rows(t, c);
  kd_->update_points(ids, rows);
  util::parallel_for_chunks(
      0, affected.size(), kGrain, opt_.num_threads,
      [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t t = b; t < e; ++t)
          nn_[affected[t]] = kd_->query_point(affected[t], k_);
      });
  finalize_graph();
  if (stats) {
    stats->dirty = ids.size();
    stats->requeried = affected.size();
  }
  return graph_;
}

}  // namespace sgm::graph
