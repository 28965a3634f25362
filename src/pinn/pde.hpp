#pragma once
// The PinnProblem interface the trainer and samplers work against, plus the
// Poisson model problem used by the quickstart example and the tests.
//
// A problem owns its collocation point cloud and boundary data, knows how
// to build the training loss for a mini-batch on a tape, how to score the
// current per-point residual (the signal every importance sampler consumes)
// and how to measure validation error against reference data.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/mlp.hpp"
#include "tensor/tape.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sgm::pinn {

/// Named validation metric (relative L2 unless stated otherwise).
struct ValidationEntry {
  std::string name;
  double error = 0.0;
};

class PinnProblem {
 public:
  virtual ~PinnProblem() = default;

  virtual std::string name() const = 0;

  /// Collocation point cloud (N x input_dim) the samplers index into.
  virtual const tensor::Matrix& interior_points() const = 0;

  /// Network input/output widths this problem expects.
  virtual std::size_t input_dim() const = 0;
  virtual std::size_t output_dim() const = 0;

  /// Training loss for one step: PDE residuals on the selected interior
  /// rows plus the problem's boundary terms (the problem draws its own
  /// boundary mini-batch from `rng`). Scalar VarId on `tape`.
  virtual tensor::VarId batch_loss(tensor::Tape& tape, const nn::Mlp& net,
                                   const nn::Mlp::Binding& binding,
                                   const std::vector<std::uint32_t>& rows,
                                   util::Rng& rng) const = 0;

  /// Forward-only per-point PDE residual magnitude (sum over residual
  /// terms of w * r^2) at the given interior rows. Drives IS refreshes.
  virtual std::vector<double> pointwise_residual(
      const nn::Mlp& net, const std::vector<std::uint32_t>& rows) const = 0;

  /// Validation errors against the problem's reference solution.
  virtual std::vector<ValidationEntry> validate(const nn::Mlp& net) const = 0;
};

/// Rows per tape in evaluate_in_blocks (measured; docs/ARCHITECTURE.md).
inline constexpr std::size_t kEvalBlockRows = 128;

/// Row-major values (points.rows() x c) of record(tape, binding, block), an
/// n x c VarId per block of kEvalBlockRows rows of `points`, recorded on one
/// tape local to the call, cleared and re-bound per block. With only row-local
/// ops on the path to the result, they match one whole-batch tape bit for bit.
template <class Record>
std::vector<double> evaluate_in_blocks(const nn::Mlp& net,
                                       const tensor::Matrix& points,
                                       Record&& record) {
  std::vector<double> out;
  tensor::Matrix block;
  tensor::Tape tape;
  nn::Mlp::Binding binding;
  for (std::size_t first = 0; first < points.rows(); first += kEvalBlockRows) {
    block.resize(std::min(kEvalBlockRows, points.rows() - first),
                 points.cols());
    std::copy_n(points.row(first), block.size(), block.data());
    tape.clear();
    net.bind(tape, &binding);
    const tensor::Matrix& value = tape.value(
        record(tape, std::as_const(binding), std::as_const(block)));
    SGM_CHECK(value.rows() == block.rows(), "record is not row-local");
    if (first == 0) out.reserve(points.rows() * value.cols());
    out.insert(out.end(), value.data(), value.data() + value.size());
  }
  return out;
}

/// -nabla^2 u = f on the unit square with u = g on the boundary, where f
/// and g come from the manufactured solution in cfd/analytic.hpp. The
/// smallest end-to-end PINN; used by quickstart and the integration tests.
class PoissonProblem final : public PinnProblem {
 public:
  struct Options {
    std::size_t interior_points = 4096;
    std::size_t boundary_points = 512;   ///< total across the four walls
    std::size_t boundary_batch = 128;    ///< per training step
    double boundary_weight = 10.0;
    std::uint64_t seed = 7;
  };

  explicit PoissonProblem(const Options& options);

  std::string name() const override { return "poisson2d"; }
  const tensor::Matrix& interior_points() const override { return interior_; }
  std::size_t input_dim() const override { return 2; }
  std::size_t output_dim() const override { return 1; }

  tensor::VarId batch_loss(tensor::Tape& tape, const nn::Mlp& net,
                           const nn::Mlp::Binding& binding,
                           const std::vector<std::uint32_t>& rows,
                           util::Rng& rng) const override;

  std::vector<double> pointwise_residual(
      const nn::Mlp& net,
      const std::vector<std::uint32_t>& rows) const override;

  std::vector<ValidationEntry> validate(const nn::Mlp& net) const override;

 private:
  /// PDE residual column (u_xx + u_yy + f) for a batch already on a tape.
  tensor::VarId residual_on_tape(tensor::Tape& tape, const nn::Mlp& net,
                                 const nn::Mlp::Binding& binding,
                                 const tensor::Matrix& batch) const;

  Options opt_;
  tensor::Matrix interior_;       // N x 2
  tensor::Matrix boundary_;       // Nb x 2
  tensor::Matrix boundary_value_; // Nb x 1 (g at each point)
};

}  // namespace sgm::pinn
