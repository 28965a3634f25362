#include "core/incremental_refresh.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace sgm::core {

using graph::CsrGraph;
using graph::Edge;
using graph::NodeId;
using tensor::Matrix;

namespace {

/// Per-column mean and std with the standardize_columns conventions
/// (population variance, zero-variance columns get inv_std = 0).
void column_moments(const Matrix& m, std::vector<double>* mean,
                    std::vector<double>* stddev,
                    std::vector<double>* inv_std) {
  mean->assign(m.cols(), 0.0);
  stddev->assign(m.cols(), 0.0);
  inv_std->assign(m.cols(), 0.0);
  if (m.rows() == 0) return;
  const double n = static_cast<double>(m.rows());
  for (std::size_t c = 0; c < m.cols(); ++c) {
    double mu = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r) mu += m(r, c);
    mu /= n;
    double var = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      const double d = m(r, c) - mu;
      var += d * d;
    }
    var /= n;
    (*mean)[c] = mu;
    (*stddev)[c] = std::sqrt(var);
    (*inv_std)[c] = var > 1e-24 ? 1.0 / std::sqrt(var) : 0.0;
  }
}

/// Sorted unique endpoints of every edge that differs (present in only one
/// graph, or re-weighted) between the two sorted-by-(u,v) edge lists.
std::vector<NodeId> diff_edges(const CsrGraph& a, const CsrGraph& b,
                               std::size_t* changed_edges) {
  const auto& ea = a.edges();
  const auto& eb = b.edges();
  std::vector<NodeId> nodes;
  std::size_t changed = 0;
  auto before = [](const Edge& x, const Edge& y) {
    return x.u != y.u ? x.u < y.u : x.v < y.v;
  };
  std::size_t i = 0, j = 0;
  while (i < ea.size() || j < eb.size()) {
    if (j == eb.size() || (i < ea.size() && before(ea[i], eb[j]))) {
      ++changed;
      nodes.push_back(ea[i].u);
      nodes.push_back(ea[i].v);
      ++i;
    } else if (i == ea.size() || before(eb[j], ea[i])) {
      ++changed;
      nodes.push_back(eb[j].u);
      nodes.push_back(eb[j].v);
      ++j;
    } else {
      if (ea[i].w != eb[j].w) {
        ++changed;
        nodes.push_back(ea[i].u);
        nodes.push_back(ea[i].v);
      }
      ++i;
      ++j;
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  if (changed_edges) *changed_edges = changed;
  return nodes;
}

}  // namespace

IncrementalRefreshEngine::IncrementalRefreshEngine(
    const Matrix& points, IncrementalRefreshOptions options)
    : points_(points),
      opt_(std::move(options)),
      knn_([&] {
        IncrementalRefreshOptions& o = opt_;
        if (o.num_threads) {
          o.pgm.num_threads = o.num_threads;
          o.lrd.num_threads = o.num_threads;
        }
        if (o.pgm.num_threads) o.pgm.knn.num_threads = o.pgm.num_threads;
        if (o.lrd.num_threads) o.lrd.er.num_threads = o.lrd.num_threads;
        return o.pgm.knn;
      }()),
      er_(opt_.lrd.er) {}

bool IncrementalRefreshEngine::outputs_active(const Matrix* outputs) const {
  return outputs != nullptr && outputs->cols() > 0 &&
         opt_.pgm.output_feature_weight > 0.0;
}

void IncrementalRefreshEngine::pin_standardization(const Matrix* outputs) {
  if (outputs == nullptr) {
    out_mean_.clear();
    out_std_.clear();
    out_inv_std_.clear();
    return;
  }
  column_moments(*outputs, &out_mean_, &out_std_, &out_inv_std_);
}

bool IncrementalRefreshEngine::std_drifted(const Matrix& outputs) const {
  if (out_std_.size() != outputs.cols()) return true;
  std::vector<double> mean, stddev, inv_std;
  column_moments(outputs, &mean, &stddev, &inv_std);
  for (std::size_t c = 0; c < stddev.size(); ++c) {
    const double fresh = std::max(stddev[c], 1e-12);
    const double pinned = std::max(out_std_[c], 1e-12);
    const double ratio = fresh / pinned;
    if (ratio > opt_.std_repin_ratio || ratio * opt_.std_repin_ratio < 1.0)
      return true;
  }
  return false;
}

Matrix IncrementalRefreshEngine::candidate_metric(
    const Matrix* outputs) const {
  const std::size_t n = points_.rows();
  const std::size_t d = points_.cols();
  const bool active = outputs_active(outputs);
  const std::size_t m = active ? outputs->cols() : 0;
  Matrix metric(n, d + m);
  const double w = opt_.pgm.output_feature_weight;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) metric(r, c) = points_(r, c);
    for (std::size_t c = 0; c < m; ++c)
      metric(r, d + c) =
          w * ((*outputs)(r, c) - out_mean_[c]) * out_inv_std_[c];
  }
  return metric;
}

graph::Clustering IncrementalRefreshEngine::full_rebuild(
    const Matrix* outputs, bool repin, RefreshStats* stats) {
  stats->full_rebuild = true;
  if (repin) {
    stats->repinned = true;
    pin_standardization(outputs_active(outputs) ? outputs : nullptr);
  }
  const Matrix metric = candidate_metric(outputs);
  knn_.rebuild(metric);
  er_.rebuild(knn_.graph());
  er_sync_graph_ = knn_.graph();
  er_changed_accum_.clear();
  er_stale_edges_ = 0;
  clustering_ =
      graph::lrd_decompose_with_embedding(knn_.graph(), er_.embedding(),
                                          opt_.lrd);
  // Fresh tracker sized for the (possibly new) metric width: spatial
  // columns keep their data scale, output columns live at the
  // output_feature_weight scale by construction.
  tracker_ = DirtyTracker(points_.rows(), metric.cols(),
                          opt_.dirty_tolerance);
  std::vector<double> mean, stddev, inv_std;
  column_moments(points_, &mean, &stddev, &inv_std);
  std::vector<double> scales(metric.cols(), 1.0);
  for (std::size_t c = 0; c < points_.cols(); ++c)
    scales[c] = std::max(stddev[c], 1e-12);
  for (std::size_t c = points_.cols(); c < metric.cols(); ++c)
    scales[c] = std::max(opt_.pgm.output_feature_weight, 1e-12);
  tracker_.set_scales(std::move(scales));
  tracker_.rebase_all(metric);
  built_ = true;
  return clustering_;
}

graph::Clustering IncrementalRefreshEngine::refresh(const Matrix* outputs,
                                                    RefreshStats* stats) {
  RefreshStats local;
  RefreshStats* st = stats ? stats : &local;
  *st = RefreshStats{};
  const std::size_t n = points_.rows();
  const bool active = outputs_active(outputs);
  if (active && outputs->rows() != n)
    throw std::invalid_argument(
        "IncrementalRefreshEngine: outputs row count mismatch");
  const std::size_t width = points_.cols() + (active ? outputs->cols() : 0);

  if (!built_ || width != knn_.metric().cols()) {
    // First build, or the metric just gained/lost its output block: pin the
    // standardization to the current outputs and build from scratch.
    st->dirty_points = n;
    st->dirty_fraction = 1.0;
    full_rebuild(outputs, /*repin=*/true, st);
    last_stats_ = *st;
    return clustering_;
  }
  if (active && std_drifted(*outputs)) {
    st->dirty_points = n;
    st->dirty_fraction = 1.0;
    full_rebuild(outputs, /*repin=*/true, st);
    last_stats_ = *st;
    return clustering_;
  }

  const Matrix cand = candidate_metric(outputs);
  const std::vector<std::uint32_t> dirty = tracker_.diff(cand);
  st->dirty_points = dirty.size();
  st->dirty_fraction =
      n ? static_cast<double>(dirty.size()) / static_cast<double>(n) : 0.0;

  if (st->dirty_fraction > opt_.incremental_threshold) {
    // Fallback: everything is re-queried/re-solved, but the pinned
    // standardization is kept (re-pinning is governed by std_repin_ratio
    // alone) so incremental and always-full engines stay in lockstep.
    full_rebuild(outputs, /*repin=*/false, st);
    last_stats_ = *st;
    return clustering_;
  }
  if (dirty.empty()) {
    last_stats_ = *st;
    return clustering_;
  }

  // Incremental path.
  {
    std::vector<char> hit(clustering_.num_clusters, 0);
    for (std::uint32_t v : dirty) hit[clustering_.node_cluster[v]] = 1;
    st->dirty_clusters = static_cast<std::size_t>(
        std::count(hit.begin(), hit.end(), char{1}));
  }
  Matrix rows(dirty.size(), width);
  for (std::size_t t = 0; t < dirty.size(); ++t)
    for (std::size_t c = 0; c < width; ++c) rows(t, c) = cand(dirty[t], c);

  const CsrGraph g_old = knn_.graph();
  graph::KnnUpdateStats ks;
  knn_.update(dirty, rows, &ks);
  st->requeried_points = ks.requeried;
  tracker_.rebase_rows(dirty, rows);

  const std::vector<NodeId> changed =
      diff_edges(g_old, knn_.graph(), &st->changed_edges);
  if (!changed.empty()) {
    // Stale-ER amortization: bank this round's changes; resync the
    // embedding only when the outstanding changed-edge fraction crosses
    // er_stale_ratio. The resync diffs against the snapshot the embedding
    // was computed ON, so correctness never depends on how many rounds were
    // banked.
    er_stale_edges_ += st->changed_edges;
    er_changed_accum_.insert(er_changed_accum_.end(), changed.begin(),
                             changed.end());
    std::sort(er_changed_accum_.begin(), er_changed_accum_.end());
    er_changed_accum_.erase(
        std::unique(er_changed_accum_.begin(), er_changed_accum_.end()),
        er_changed_accum_.end());
    const double stale_ratio =
        static_cast<double>(er_stale_edges_) /
        std::max<double>(1.0, static_cast<double>(knn_.graph().num_edges()));
    // A grown max degree must unpin the smoothed Richardson step size NOW:
    // skipping this graph would let the pin history diverge from an engine
    // that resyncs every refresh, breaking the resync-lands-bitwise
    // contract (see IncrementalErEngine::max_degree_seen).
    bool degree_unpins = false;
    if (opt_.lrd.er.method == graph::ErMethod::kSmoothed) {
      double d_max = 0.0;
      for (NodeId u = 0; u < knn_.graph().num_nodes(); ++u)
        d_max = std::max(d_max, knn_.graph().weighted_degree(u));
      degree_unpins = d_max > er_.max_degree_seen();
    }
    if (stale_ratio > opt_.er_stale_ratio || degree_unpins) {
      er_.update(knn_.graph(), er_sync_graph_, er_changed_accum_, &st->er);
      er_sync_graph_ = knn_.graph();
      er_changed_accum_.clear();
      er_stale_edges_ = 0;
      st->er_resynced = true;
    } else {
      st->er_reused_stale = true;
    }
    st->er_stale_changed_accum = er_stale_edges_;
    clustering_ = graph::lrd_decompose_with_embedding(
        knn_.graph(), er_.embedding(), opt_.lrd);
  }
  last_stats_ = *st;
  return clustering_;
}

}  // namespace sgm::core
