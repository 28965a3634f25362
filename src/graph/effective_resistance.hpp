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
//                  by damped Richardson sweeps, orthogonalized to the
//                  constant vector, the columns swept in groups (one block
//                  SpMV per group). No linear solves; nearly-linear time.
//                  This is the scalable path referenced in Section 3.3 of
//                  the paper and the default inside LRD. It produces
//                  *relative* (rank-preserving) rather than calibrated
//                  estimates.

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "tensor/matrix.hpp"

namespace sgm::graph {

enum class ErMethod { kExact, kSmoothed };

struct ErOptions {
  ErMethod method = ErMethod::kSmoothed;
  int num_vectors = 12;        ///< t: embedding width (kSmoothed)
  int smoothing_iterations = 40;  ///< Richardson sweeps for kSmoothed
  std::uint64_t seed = 1234;
  /// Worker threads for the smoothing (kSmoothed), one pool task per group
  /// of 4 columns: at most ceil(t / 4) tasks (3 at t = 12), so threads past
  /// that count sit idle; timed at 1 and 4 threads only. The random draws
  /// stay serial, so the stream is thread-count independent. 0 =
  /// util::resolve_threads default, 1 = serial. Any value yields
  /// byte-identical embeddings.
  std::size_t num_threads = 0;
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

}  // namespace sgm::graph
