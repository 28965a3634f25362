#pragma once
// Input encodings (the phi_E layer of Eq. 2 in the paper).
//
// Encodings are constant w.r.t. the trainable parameters, so their values
// and spatial derivatives are computed eagerly into plain matrices — the
// tape's pooled constant leaves when training — and enter the tape as
// constants. Each encoding reports value E, per-dimension Jacobian columns
// dE[k] = dE/dx_k and Hessian diagonals d2E[k] = d2E/dx_k^2 for the first
// n_deriv input dimensions.

#include <memory>
#include <span>

#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace sgm::nn {

class InputEncoding {
 public:
  virtual ~InputEncoding() = default;

  /// Width of the encoded feature vector for a given raw input width.
  virtual std::size_t output_dim(std::size_t input_dim) const = 0;

  /// Encode batch X (n x input_dim) into the caller's buffers, each resized
  /// in place (capacity retained, so reused buffers allocate nothing): E
  /// (n x output_dim) and, for each k < n_deriv = de.size() = d2e.size(),
  /// *de[k] = dE/dx_k and *d2e[k] = d2E/dx_k^2 with the same shape as E.
  /// Throws std::invalid_argument unless n_deriv <= input_dim.
  virtual void encode(const tensor::Matrix& x, tensor::Matrix& e,
                      std::span<tensor::Matrix* const> de = {},
                      std::span<tensor::Matrix* const> d2e = {}) const = 0;
};

/// Pass-through (no encoding).
class IdentityEncoding final : public InputEncoding {
 public:
  std::size_t output_dim(std::size_t input_dim) const override {
    return input_dim;
  }
  void encode(const tensor::Matrix& x, tensor::Matrix& e,
              std::span<tensor::Matrix* const> de = {},
              std::span<tensor::Matrix* const> d2e = {}) const override;
};

/// Fourier features: E = [x, sin(x B), cos(x B)] with a fixed frequency
/// matrix B (input_dim x n_freq). Modulus enables these by default for CFD
/// examples; they sharpen the network's ability to fit boundary layers.
class FourierEncoding final : public InputEncoding {
 public:
  /// Frequencies drawn as N(0, sigma^2); fixed thereafter (not trainable).
  FourierEncoding(std::size_t input_dim, std::size_t n_freq, double sigma,
                  util::Rng& rng);

  /// Explicit frequency matrix (input_dim x n_freq).
  explicit FourierEncoding(tensor::Matrix frequencies);

  std::size_t output_dim(std::size_t input_dim) const override;
  /// One sin and one cos per (row, frequency), shared by E, dE and d2E.
  void encode(const tensor::Matrix& x, tensor::Matrix& e,
              std::span<tensor::Matrix* const> de = {},
              std::span<tensor::Matrix* const> d2e = {}) const override;

  const tensor::Matrix& frequencies() const { return b_; }

 private:
  tensor::Matrix b_;  // input_dim x n_freq
};

}  // namespace sgm::nn
