#include "nn/encoding.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace sgm::nn {

using tensor::Matrix;

namespace {

void check_deriv_buffers(const Matrix& x, std::span<Matrix* const> de,
                         std::span<Matrix* const> d2e) {
  if (de.size() != d2e.size() || de.size() > x.cols())
    throw std::invalid_argument(
        "InputEncoding::encode: need n_deriv <= input_dim buffers of each "
        "derivative kind");
}

}  // namespace

void IdentityEncoding::encode(const Matrix& x, Matrix& e,
                              std::span<Matrix* const> de,
                              std::span<Matrix* const> d2e) const {
  check_deriv_buffers(x, de, d2e);
  e = x;
  for (std::size_t k = 0; k < de.size(); ++k) {
    Matrix& dk = *de[k];
    dk.resize(x.rows(), x.cols());
    dk.set_zero();
    for (std::size_t r = 0; r < x.rows(); ++r) dk(r, k) = 1.0;
    d2e[k]->resize(x.rows(), x.cols());
    d2e[k]->set_zero();
  }
}

FourierEncoding::FourierEncoding(std::size_t input_dim, std::size_t n_freq,
                                 double sigma, util::Rng& rng)
    : b_(input_dim, n_freq) {
  for (std::size_t i = 0; i < input_dim; ++i)
    for (std::size_t j = 0; j < n_freq; ++j) b_(i, j) = rng.normal(0.0, sigma);
}

FourierEncoding::FourierEncoding(Matrix frequencies)
    : b_(std::move(frequencies)) {
  if (b_.rows() == 0 || b_.cols() == 0)
    throw std::invalid_argument("FourierEncoding: empty frequency matrix");
}

std::size_t FourierEncoding::output_dim(std::size_t input_dim) const {
  if (input_dim != b_.rows())
    throw std::invalid_argument("FourierEncoding: input_dim mismatch");
  return input_dim + 2 * b_.cols();
}

void FourierEncoding::encode(const Matrix& x, Matrix& e,
                             std::span<Matrix* const> de,
                             std::span<Matrix* const> d2e) const {
  if (x.cols() != b_.rows())
    throw std::invalid_argument("FourierEncoding: batch width mismatch");
  check_deriv_buffers(x, de, d2e);
  const std::size_t n = x.rows(), d = x.cols(), f = b_.cols();
  const std::size_t out = d + 2 * f;

  // The phases x·B are computed into e's own buffer, packed f wide, then
  // spread last row first: row r's phases sit at [r·f, r·f + f), at or
  // before its destination row [r·out, r·out + out), so spreading backwards
  // never overwrites phases not yet read. Each row's phases are moved to
  // its cos block and turned into sin and cos there, one of each per phase.
  e.resize(n, f);
  tensor::gemm_nn(x, b_, e, 0, n, /*accumulate=*/false);
  e.resize(n, out);
  for (std::size_t r = n; r-- > 0;) {
    double* row = e.row(r);
    double* sin_block = row + d;
    double* cos_block = row + d + f;
    std::memmove(cos_block, e.data() + r * f, f * sizeof(double));
    for (std::size_t j = 0; j < f; ++j) {
      const double p = cos_block[j];
      sin_block[j] = std::sin(p);
      cos_block[j] = std::cos(p);
    }
    for (std::size_t c = 0; c < d; ++c) row[c] = x(r, c);
  }

  for (std::size_t k = 0; k < de.size(); ++k) {
    Matrix& dk = *de[k];
    Matrix& hk = *d2e[k];
    dk.resize(n, out);
    hk.resize(n, out);
    for (std::size_t r = 0; r < n; ++r) {
      const double* sp = e.row(r) + d;
      const double* cp = sp + f;
      double* drow = dk.row(r);
      double* hrow = hk.row(r);
      for (std::size_t c = 0; c < d; ++c) {
        drow[c] = c == k ? 1.0 : 0.0;
        hrow[c] = 0.0;
      }
      for (std::size_t j = 0; j < f; ++j) {
        const double bkj = b_(k, j);
        drow[d + j] = bkj * cp[j];        // d sin / dx_k
        drow[d + f + j] = -bkj * sp[j];   // d cos / dx_k
        hrow[d + j] = -bkj * bkj * sp[j];
        hrow[d + f + j] = -bkj * bkj * cp[j];
      }
    }
  }
}

}  // namespace sgm::nn
