#pragma once
// Shared test helper: dense reference Cholesky of an SPD matrix and the two
// triangular solves, O(n^3) and written for clarity. The sparse envelope
// factor (test_cholesky.cpp) and the ISR subspace iteration
// (test_spade.cpp) are checked against it.

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "tensor/matrix.hpp"

namespace sgm::testutil {

/// Lower-triangular C with A = C C^T. Throws on a non-positive pivot.
inline tensor::Matrix dense_cholesky(const tensor::Matrix& a) {
  const std::size_t n = a.rows();
  tensor::Matrix c(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= c(j, k) * c(j, k);
    if (!(d > 0.0)) throw std::runtime_error("dense_cholesky: not SPD");
    c(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= c(i, k) * c(j, k);
      c(i, j) = s / c(j, j);
    }
  }
  return c;
}

/// Solves C y = b for lower-triangular C.
inline std::vector<double> lower_solve(const tensor::Matrix& c,
                                       std::vector<double> b) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (std::size_t k = 0; k < i; ++k) b[i] -= c(i, k) * b[k];
    b[i] /= c(i, i);
  }
  return b;
}

/// Solves C^T x = y for lower-triangular C.
inline std::vector<double> lower_transpose_solve(const tensor::Matrix& c,
                                                 std::vector<double> y) {
  for (std::size_t i = y.size(); i-- > 0;) {
    for (std::size_t k = i + 1; k < y.size(); ++k) y[i] -= c(k, i) * y[k];
    y[i] /= c(i, i);
  }
  return y;
}

}  // namespace sgm::testutil
