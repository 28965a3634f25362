#pragma once
// Effective-resistance estimation (Definition 3.1 of the paper).
//
// All estimators produce an *embedding*: a matrix Z (n x t) such that
// R_eff(u, v) ≈ || Z_u - Z_v ||^2 over rows. Working with embeddings (rather
// than per-edge scalars) lets the LRD decomposition bound the resistance
// diameter of merged clusters without re-solving.
//
// Back-ends:
//  * kExact      — dense eigendecomposition, Z = U diag(lambda^-1/2); O(n^3),
//                  the test oracle for tiny graphs.
//  * kSmoothed   — HyperEF-style Krylov smoothing: t random vectors smoothed
//                  by a few Jacobi iterations, orthogonalized to the constant
//                  vector. No linear solves; nearly-linear time. This is the
//                  scalable path referenced in Section 3.3 of the paper and
//                  the default inside LRD. It produces *relative* (rank-
//                  preserving) rather than calibrated estimates.

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "tensor/matrix.hpp"

namespace sgm::graph {

enum class ErMethod { kExact, kSmoothed };

struct ErOptions {
  ErMethod method = ErMethod::kSmoothed;
  int num_vectors = 12;        ///< t: embedding width (kSmoothed)
  int smoothing_iterations = 40;  ///< Jacobi sweeps for kSmoothed
  std::uint64_t seed = 1234;
  /// Worker threads for the per-column smoothing (kSmoothed; random draws
  /// stay serial so the stream is thread-count independent). 0 =
  /// util::resolve_threads default, 1 = serial. Any value yields
  /// byte-identical embeddings.
  std::size_t num_threads = 0;
  /// IncrementalErEngine / kSmoothed only: when the influence region of the
  /// changed edges covers more than this fraction of the nodes, recompute
  /// every column in full instead of the localized sweep.
  double incremental_region_fraction = 0.5;
};

/// Embedding Z with rows as node coordinates; see file comment.
tensor::Matrix effective_resistance_embedding(const CsrGraph& g,
                                              const ErOptions& options);

/// R(u,v) read off an embedding.
double er_from_embedding(const tensor::Matrix& z, NodeId u, NodeId v);

/// Per-unique-edge effective resistances from an embedding, aligned with
/// g.edges(). num_threads: 0 = util::resolve_threads default, 1 = serial.
std::vector<double> edge_effective_resistance(const CsrGraph& g,
                                              const tensor::Matrix& z,
                                              std::size_t num_threads = 0);

/// Exact effective resistance between two nodes via dense pseudo-inverse
/// (test helper; O(n^3)).
double exact_effective_resistance(const CsrGraph& g, NodeId u, NodeId v);

struct ErUpdateStats {
  bool full_recompute = false;    ///< every node/column was recomputed
  std::size_t changed_nodes = 0;  ///< endpoints of changed edges seen
  std::size_t region_nodes = 0;   ///< kSmoothed: nodes inside the swept ball
};

/// Incrementally-maintained effective-resistance embedding — the S2 half of
/// the incremental refresh engine.
///
/// The engine keeps the previous embedding between refreshes and restricts
/// the re-sweep to what the changed edges can actually influence:
///  * kSmoothed — the T-sweep Richardson iteration has finite propagation
///    speed: a node farther than T hops (in the union of the old and new
///    adjacency) from every changed edge reproduces its previous value
///    exactly. The engine re-sweeps only the 2T-hop ball around the changed
///    endpoints and commits the T-hop core, which is *bit-identical* to a
///    full canonical recompute; when the ball exceeds
///    incremental_region_fraction * n it recomputes all columns. To make
///    values splice across refreshes the canonical form pins the Richardson
///    step size to the largest max-degree seen (monotone, re-pinned with a
///    full recompute when the degree grows) and deflates the constant mode
///    once on the initial vectors rather than every sweep — a per-column
///    constant shift that cancels in every R(u,v) readout.
///  * kExact    — always recomputed (tests/tiny graphs only).
///
/// Note the canonical forms differ (deliberately, and only within estimator
/// noise) from the one-shot effective_resistance_embedding(); equivalence
/// tests compare IncrementalErEngine::update against
/// IncrementalErEngine::rebuild, which share them.
class IncrementalErEngine {
 public:
  explicit IncrementalErEngine(ErOptions options);

  /// Full canonical recompute over `g`. For a fixed option set and graph
  /// history this is deterministic; for kExact it is a pure function of
  /// `g`, for kSmoothed it also depends on the monotone pinned step size
  /// (see above).
  const tensor::Matrix& rebuild(const CsrGraph& g);

  /// Incremental update. `g` is the new graph, `prev` the graph this engine
  /// last saw, `changed_nodes` the sorted endpoints of every edge that was
  /// added, removed, or re-weighted between them. Falls back to a full
  /// recompute internally whenever required for correctness.
  const tensor::Matrix& update(const CsrGraph& g, const CsrGraph& prev,
                               const std::vector<NodeId>& changed_nodes,
                               ErUpdateStats* stats = nullptr);

  const tensor::Matrix& embedding() const { return z_; }

  /// kSmoothed: the monotone max weighted degree the Richardson step size
  /// is pinned to. Callers that SKIP updates (stale-ER amortization) must
  /// force an update whenever a graph's max degree exceeds this — else
  /// their pin history diverges from an engine that saw every graph and
  /// the resync-lands-bitwise contract breaks (the refresh engine does
  /// exactly that check each refresh).
  double max_degree_seen() const { return d_max_seen_; }

 private:
  void smoothed_full(const CsrGraph& g);
  void smoothed_localized(const CsrGraph& g,
                          const std::vector<NodeId>& commit,
                          const std::vector<NodeId>& swept);
  const std::vector<std::vector<double>>& cached_init(std::size_t n);

  ErOptions opt_;
  tensor::Matrix z_;
  double d_max_seen_ = 0.0;
  double sigma_pin_ = 0.0;
  /// The deflated random initial vectors are a pure function of
  /// (seed, n, t); caching them keeps localized updates from paying the
  /// O(n * t) serial regeneration on every refresh.
  std::vector<std::vector<double>> init_cache_;
  std::size_t init_cache_n_ = 0;
};

}  // namespace sgm::graph
