#pragma once
// Fully-connected network (Eq. 2 of the paper) with tape-recorded forward
// passes that additionally propagate first and second derivatives of the
// outputs w.r.t. selected input dimensions.
//
// How second-order PDE terms are differentiated w.r.t. the weights: the
// extended forward pass carries, per input dimension k, the Jacobian column
// A_k = da/dx_k and the Hessian diagonal H_k = d2a/dx_k^2 through each layer
// using only tape ops (matmul, elementwise sigma/sigma'/sigma'', products).
// The chain rule per hidden layer (z = a W + b, a' = sigma(z)) is:
//   Z_k  = A_k W          Hz_k = H_k W
//   A'_k = sigma'(z) . Z_k
//   H'_k = sigma''(z) . Z_k^2 + sigma'(z) . Hz_k
// Because these are ordinary tape ops, a single reverse sweep yields
// d(loss)/d(theta) even when the loss involves u_xx, u_yy, etc.
//
// The recording uses the tape's fused ops: z is one affine node, the whole
// sigma/sigma'/sigma''(/sigma''' for backward) ladder is ONE activation
// sweep over z, and the A'_k / H'_k updates are single act_chain /
// act_curve nodes — so a hidden layer with n_deriv=2 costs 1 affine +
// 4 matmul + 1 activation + 4 fused elementwise nodes.

#include <memory>
#include <vector>

#include "nn/activation.hpp"
#include "nn/encoding.hpp"
#include "tensor/tape.hpp"
#include "util/rng.hpp"

namespace sgm::nn {

struct MlpConfig {
  std::size_t input_dim = 2;
  std::size_t output_dim = 1;
  std::size_t width = 64;
  std::size_t depth = 4;  ///< number of hidden layers
  const Activation* activation = &silu();
  /// Optional phi_E input encoding; null means identity.
  std::shared_ptr<const InputEncoding> encoding;
};

class Mlp {
 public:
  /// Xavier-uniform initialization from `rng`.
  Mlp(MlpConfig cfg, util::Rng& rng);

  const MlpConfig& config() const { return cfg_; }
  std::size_t num_parameters() const;

  /// Inference-only forward pass (no tape, no derivatives).
  tensor::Matrix forward(const tensor::Matrix& x) const;

  /// Pooled activations for forward_batched (capacity retained across
  /// calls, so the serving steady state allocates nothing).
  struct ForwardWorkspace {
    tensor::Matrix a, z;
    tensor::Matrix e;  ///< encoded input
  };

  /// Inference forward of batch `x` (n x input_dim) into `out`
  /// (n x output_dim), built on the blocked row-range GEMM kernels with
  /// optional row-parallelism over the shared thread pool. Each output row
  /// is computed exactly as forward() computes it — the GEMM kernels
  /// accumulate per element in a fixed reduction order regardless of tiling
  /// or row span — so the result is bitwise identical to forward() row by
  /// row, for any batch composition and any num_threads. This is the
  /// serving batcher's coalesced path and the contract test_serve pins.
  /// num_threads: 0 = SGM_NUM_THREADS env / hardware concurrency, 1 =
  /// inline serial.
  void forward_batched(const tensor::Matrix& x, tensor::Matrix& out,
                       ForwardWorkspace& ws, std::size_t num_threads = 1)
      const;

  /// Derivative propagation is carried in fixed-size per-dimension arrays;
  /// n_deriv beyond this throws (the PDE problems use at most 3 dims).
  static constexpr int kMaxDeriv = 8;

  /// Parameter VarIds after binding this network's weights onto a tape.
  struct Binding {
    std::vector<tensor::VarId> w;
    std::vector<tensor::VarId> b;
  };
  Binding bind(tensor::Tape& tape) const;

  /// Reuse-friendly overload: refills `binding` in place (vector capacity
  /// is retained, so rebinding a cleared tape every step allocates nothing).
  void bind(tensor::Tape& tape, Binding* binding) const;

  struct TapeOutputs {
    tensor::VarId y = tensor::kNoVar;       ///< n x output_dim
    std::vector<tensor::VarId> dy;          ///< dy[k]  = d y / d x_k
    std::vector<tensor::VarId> d2y;         ///< d2y[k] = d^2 y / d x_k^2
  };

  /// Records the forward pass of batch `x` (n x input_dim) on `tape`,
  /// propagating derivatives for the first `n_deriv` input dimensions
  /// (0 => plain forward). Parameter gradients flow through `binding`.
  TapeOutputs forward_on_tape(tensor::Tape& tape, const Binding& binding,
                              const tensor::Matrix& x, int n_deriv) const;

  /// Reuse-friendly overload writing into `out` (vectors reused in place).
  void forward_on_tape(tensor::Tape& tape, const Binding& binding,
                       const tensor::Matrix& x, int n_deriv,
                       TapeOutputs* out) const;

  /// Copies gradients of the bound parameters out of the tape after
  /// backward(); order matches parameters(). Missing grads come out zero.
  std::vector<tensor::Matrix> collect_grads(const tensor::Tape& tape,
                                            const Binding& binding) const;

  /// Reuse-friendly overload: resizes `grads` once and copy-assigns into
  /// its pooled matrices thereafter (no steady-state allocations).
  void collect_grads_into(const tensor::Tape& tape, const Binding& binding,
                          std::vector<tensor::Matrix>* grads) const;

  /// Mutable views of all parameters, weights then biases, layer-major.
  std::vector<tensor::Matrix*> parameters();
  std::vector<const tensor::Matrix*> parameters() const;

  /// Overwrite parameters (e.g. restoring a checkpoint); shapes must match.
  void set_parameters(const std::vector<tensor::Matrix>& params);

 private:
  std::size_t encoded_dim() const;

  MlpConfig cfg_;
  std::vector<tensor::Matrix> weights_;  ///< layer l: (d_{l-1} x d_l)
  std::vector<tensor::Matrix> biases_;   ///< layer l: (1 x d_l)
};

}  // namespace sgm::nn
