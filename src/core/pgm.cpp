#include "core/pgm.hpp"

#include <cmath>
#include <stdexcept>

namespace sgm::core {

using tensor::Matrix;

Matrix standardize_columns(const Matrix& m) {
  Matrix out(m.rows(), m.cols());
  const double n = static_cast<double>(m.rows());
  if (m.rows() == 0) return out;
  for (std::size_t c = 0; c < m.cols(); ++c) {
    double mean = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r) mean += m(r, c);
    mean /= n;
    double var = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      const double d = m(r, c) - mean;
      var += d * d;
    }
    var /= n;
    const double inv_std = var > 1e-24 ? 1.0 / std::sqrt(var) : 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r)
      out(r, c) = (m(r, c) - mean) * inv_std;
  }
  return out;
}

graph::CsrGraph build_pgm(const Matrix& points, const Matrix* outputs,
                          const PgmOptions& options) {
  const Matrix* metric = &points;
  Matrix augmented;
  if (outputs != nullptr && options.output_feature_weight > 0.0) {
    if (outputs->rows() != points.rows())
      throw std::invalid_argument("build_pgm: outputs row count mismatch");
    const Matrix std_out = standardize_columns(*outputs);
    augmented = Matrix(points.rows(), points.cols() + std_out.cols());
    for (std::size_t r = 0; r < points.rows(); ++r) {
      for (std::size_t c = 0; c < points.cols(); ++c)
        augmented(r, c) = points(r, c);
      for (std::size_t c = 0; c < std_out.cols(); ++c)
        augmented(r, points.cols() + c) =
            options.output_feature_weight * std_out(r, c);
    }
    metric = &augmented;
  }

  graph::KnnGraphOptions knn = options.knn;
  if (options.num_threads) knn.num_threads = options.num_threads;
  return graph::build_knn_graph(*metric, knn);
}

}  // namespace sgm::core
