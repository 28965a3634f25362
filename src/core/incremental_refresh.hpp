#pragma once
// The incremental S1/S2 refresh engine — the stage the SGM sampler runs
// every tau_G iterations, restructured so its cost scales with how much of
// the point cloud actually changed instead of with n.
//
// Between refreshes the only thing that can move a point in the PGM metric
// is its model-output feature block (spatial coordinates are fixed). The
// engine therefore:
//
//   1. forms the candidate metric row of every point from the *pinned*
//      output standardization (mean/std captured when outputs first joined
//      the metric, re-pinned only when the output scale drifts beyond
//      std_repin_ratio — a deterministic function of the output stream);
//   2. diffs candidate rows against the applied metric (core/dirty_tracker)
//      to get the dirty set; sub-tolerance drift is deferred — clean rows
//      keep their exact previous values, so their cached kNN results stay
//      valid (and drift accumulates against the applied reference until it
//      crosses the threshold);
//   3. when the dirty fraction exceeds incremental_threshold, falls back to
//      a full rebuild (fresh index, every point re-queried, every ER column
//      re-swept in full);
//   4. otherwise updates the kNN graph by point re-insertion + localized
//      re-query (graph/incremental_knn), re-sweeps the effective-resistance
//      embedding only around the changed edges (graph/effective_resistance,
//      IncrementalErEngine — finite-propagation region sweeps for
//      kSmoothed), and re-runs the cheap LRD merge on the updated
//      (graph, embedding) pair.
//
// Equivalence contract (pinned by tests/test_incremental_refresh.cpp): with
// dirty_tolerance = 0, an engine taking the incremental path produces the
// same kNN edges, bitwise-identical ER values and the identical clustering
// as an engine configured to take the full-rebuild path on every refresh,
// fed the same output stream.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dirty_tracker.hpp"
#include "core/pgm.hpp"
#include "graph/effective_resistance.hpp"
#include "graph/incremental_knn.hpp"
#include "graph/lrd.hpp"
#include "tensor/matrix.hpp"

namespace sgm::core {

struct IncrementalRefreshOptions {
  PgmOptions pgm{};        ///< kNN options, output feature weight
  graph::LrdOptions lrd{};  ///< levels, budget, ER estimator
  /// Relative per-feature drift that makes a point dirty (0 = any bitwise
  /// change; the setting under which incremental == full exactly).
  double dirty_tolerance = 0.0;
  /// Dirty fraction above which the engine falls back to a full rebuild.
  /// Negative forces the full path on every refresh (the equivalence
  /// baseline); >= 1 never falls back.
  double incremental_threshold = 0.30;
  /// Re-pin the output standardization (and rebuild fully) when any output
  /// column's fresh std leaves [pinned/ratio, pinned*ratio].
  double std_repin_ratio = 2.0;
  /// Stale-ER amortization: while the CUMULATIVE fraction of PGM edges
  /// changed since the last ER resync stays <= this ratio, refreshes reuse
  /// the cached embedding wholesale — unchanged edges read their exact
  /// previous ER values, changed/new edges read off the (slightly stale)
  /// embedding rows; LRD consumes only the resulting ranking, which is
  /// robust to the perturbation. Crossing the ratio triggers an exact
  /// resync against the graph snapshot the embedding was computed on —
  /// which for kSmoothed lands bit-for-bit on the canonical recompute, so
  /// the engine re-coincides with a never-stale engine at every resync.
  /// (A refresh whose graph grows the max weighted degree beyond the
  /// smoothed step-size pin forces a resync regardless of the ratio;
  /// otherwise a skipped graph could leave this engine's pin history —
  /// and hence every later embedding — diverged from the never-stale
  /// engine's.)
  /// 0 (default) = resync every refresh (the strict-equivalence mode); a
  /// resync re-sweeps the whole 2T-hop ball around the changed edges no
  /// matter how small the perturbation, so this amortization is where the
  /// ER-stage speedup actually comes from.
  double er_stale_ratio = 0.0;
  /// Worker threads for the query/solve sweeps. Nonzero overrides the
  /// pgm/lrd thread counts; 0 defers to them. Byte-identical results for
  /// any value.
  std::size_t num_threads = 0;
};

struct RefreshStats {
  bool full_rebuild = false;   ///< took the full path (first build, width
                               ///< change, repin, or threshold fallback)
  bool repinned = false;       ///< output standardization re-captured
  std::size_t dirty_points = 0;
  double dirty_fraction = 0.0;
  std::size_t requeried_points = 0;  ///< kNN lists recomputed
  std::size_t changed_edges = 0;     ///< PGM edges added/removed/reweighted
  std::size_t dirty_clusters = 0;    ///< previous clusters touched by dirty points
  bool er_reused_stale = false;      ///< embedding reused under er_stale_ratio
  bool er_resynced = false;          ///< exact ER recompute ran this refresh
  /// Cumulative changed edges currently outstanding against the embedding.
  std::size_t er_stale_changed_accum = 0;
  graph::ErUpdateStats er{};
};

class IncrementalRefreshEngine {
 public:
  /// `points` (n x d spatial/parameter coordinates) must outlive the
  /// engine. Nothing is built until the first refresh() call.
  IncrementalRefreshEngine(const tensor::Matrix& points,
                           IncrementalRefreshOptions options);

  /// Builds (first call) or refreshes the PGM + LRD clustering. `outputs`
  /// is the current model-output matrix over all points (nullptr, or a
  /// zero output_feature_weight, keeps the metric purely spatial — in which
  /// case every refresh after the first is a no-op). Returns the clustering
  /// for the caller's ClusterStore.
  graph::Clustering refresh(const tensor::Matrix* outputs,
                            RefreshStats* stats = nullptr);

  const RefreshStats& last_stats() const { return last_stats_; }
  const graph::CsrGraph& graph() const { return knn_.graph(); }
  const tensor::Matrix& embedding() const { return er_.embedding(); }
  const tensor::Matrix& metric() const { return knn_.metric(); }

 private:
  bool outputs_active(const tensor::Matrix* outputs) const;
  tensor::Matrix candidate_metric(const tensor::Matrix* outputs) const;
  void pin_standardization(const tensor::Matrix* outputs);
  bool std_drifted(const tensor::Matrix& outputs) const;
  graph::Clustering full_rebuild(const tensor::Matrix* outputs, bool repin,
                                 RefreshStats* stats);

  const tensor::Matrix& points_;
  IncrementalRefreshOptions opt_;
  graph::IncrementalKnnGraph knn_;
  graph::IncrementalErEngine er_;
  DirtyTracker tracker_;
  std::vector<double> out_mean_, out_std_, out_inv_std_;  // pinned
  bool built_ = false;
  graph::Clustering clustering_;  // last result (reused on no-op refreshes)
  RefreshStats last_stats_;
  // Stale-ER bookkeeping: the graph snapshot the current embedding was
  // computed on, the changed endpoints accumulated against it, and the
  // outstanding changed-edge count.
  graph::CsrGraph er_sync_graph_;
  std::vector<graph::NodeId> er_changed_accum_;
  std::size_t er_stale_edges_ = 0;
};

}  // namespace sgm::core
