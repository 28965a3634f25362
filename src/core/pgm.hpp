#pragma once
// Stage S1: probabilistic-graphical-model construction from the point cloud.
//
// The PGM is an undirected kNN graph over the collocation points' spatial
// coordinates; edge weights (inverse distance) encode the conditional
// dependence between nearby samples (Section 3.2). Later in training the
// graph can be rebuilt with model outputs appended as extra features so the
// clustering also respects the emerging solution structure (e.g. grouping
// points with similar velocity), which the paper mentions as the "re-built
// ... incorporating additional features from the output" path. The search
// is the exact kd-tree of graph/knn.hpp at every metric width the registered
// scenarios reach (2 coordinates up to 3 coordinates + 3 outputs).

#include "graph/csr.hpp"
#include "graph/knn.hpp"
#include "tensor/matrix.hpp"

namespace sgm::core {

struct PgmOptions {
  graph::KnnGraphOptions knn{};      ///< k, weight scheme
  /// If > 0 and outputs are provided, appends standardized output features
  /// scaled by this factor to the coordinates before the kNN search.
  double output_feature_weight = 0.0;
  /// Worker threads for the kNN queries + edge assembly. Nonzero overrides
  /// knn.num_threads; 0 defers to it. The built graph is byte-identical for
  /// any value.
  std::size_t num_threads = 0;
};

/// Builds the PGM over `points` (n x d spatial/parameter coordinates).
/// `outputs` may be null; when present (n x m) and output_feature_weight > 0
/// its standardized columns join the metric.
graph::CsrGraph build_pgm(const tensor::Matrix& points,
                          const tensor::Matrix* outputs,
                          const PgmOptions& options);

/// Helper: standardize each column of `m` to zero mean / unit variance
/// (columns with zero variance become all-zero). Returns the result.
tensor::Matrix standardize_columns(const tensor::Matrix& m);

}  // namespace sgm::core
