#pragma once
// Steady incompressible Navier–Stokes residuals on the tape, and the
// lid-driven-cavity (LDC) problem of Section 4.1 — the paper's primary
// non-parameterized benchmark.
//
// Network outputs: column 0 = u, 1 = v, 2 = p (kinematic pressure, rho=1).
// Residuals (plus optional zero-equation eddy viscosity nu_t):
//   continuity: u_x + v_y
//   momentum-x: u u_x + v u_y + p_x - (nu + nu_t)(u_xx + u_yy)
//   momentum-y: u v_x + v v_y + p_y - (nu + nu_t)(v_xx + v_yy)
// (The molecular+eddy viscous term uses the simplified constant-nu form
// Modulus' LDC example uses; the variable-nu_t transport correction is
// second order in the mixing-length model and omitted, as there.)

#include <memory>

#include "cfd/ldc_solver.hpp"
#include "nn/mlp.hpp"
#include "pinn/pde.hpp"
#include "pinn/zero_eq.hpp"

namespace sgm::pinn {

/// The three NS residual columns for a batch whose TapeOutputs carry first
/// and second derivatives w.r.t. input dims 0 (x) and 1 (y).
/// `nu_t` may be kNoVar for laminar flow.
struct NsResiduals {
  tensor::VarId continuity = tensor::kNoVar;
  tensor::VarId momentum_x = tensor::kNoVar;
  tensor::VarId momentum_y = tensor::kNoVar;
};
NsResiduals navier_stokes_residuals(tensor::Tape& tape,
                                    const nn::Mlp::TapeOutputs& out,
                                    double nu, tensor::VarId nu_t);

/// Lid-driven cavity with optional zero-equation turbulence.
class LdcProblem final : public PinnProblem {
 public:
  struct Options {
    double reynolds = 100.0;       ///< paper runs Re = 1000 (scaled here)
    double lid_velocity = 1.0;
    std::size_t interior_points = 16384;  ///< N (paper: 0.5M - 16M)
    std::size_t boundary_points = 2048;   ///< total over the four walls
    std::size_t boundary_batch = 128;
    double boundary_weight = 30.0;
    bool zero_equation = true;     ///< LDC_zeroEq vs laminar LDC
    ZeroEqOptions zero_eq{};
    /// Weight interior residuals by wall distance (Modulus' SDF weighting).
    bool sdf_weighting = true;
    std::uint64_t seed = 11;
  };

  /// `reference` supplies validation fields (the OpenFOAM substitute). May
  /// be null — validate() then returns empty.
  LdcProblem(const Options& options,
             std::shared_ptr<const cfd::LdcSolution> reference);

  std::string name() const override { return "ldc_zeroeq"; }
  const tensor::Matrix& interior_points() const override { return interior_; }
  std::size_t input_dim() const override { return 2; }
  std::size_t output_dim() const override { return 3; }

  tensor::VarId batch_loss(tensor::Tape& tape, const nn::Mlp& net,
                           const nn::Mlp::Binding& binding,
                           const std::vector<std::uint32_t>& rows,
                           util::Rng& rng) const override;

  std::vector<double> pointwise_residual(
      const nn::Mlp& net,
      const std::vector<std::uint32_t>& rows) const override;

  /// Validation errors: relative L2 of u and v against the reference FD
  /// fields on an interior grid, plus "nu" — the zero-equation nu_t
  /// compared against nu_t evaluated from the reference velocity field —
  /// mirroring the paper's (u, v, nu) columns in Table 1.
  std::vector<ValidationEntry> validate(const nn::Mlp& net) const override;

  const Options& options() const { return opt_; }
  /// The reference fields validate() compares against; may be null.
  const std::shared_ptr<const cfd::LdcSolution>& reference() const {
    return reference_;
  }

 private:
  struct BatchTerms {
    tensor::VarId loss = tensor::kNoVar;
    tensor::VarId residual_sq_per_point = tensor::kNoVar;  ///< n x 1
  };
  BatchTerms interior_terms(tensor::Tape& tape, const nn::Mlp& net,
                            const nn::Mlp::Binding& binding,
                            const tensor::Matrix& batch) const;

  Options opt_;
  double nu_ = 0.0;  ///< molecular viscosity = lid_velocity / Re
  tensor::Matrix interior_;        // N x 2
  tensor::Matrix boundary_;        // Nb x 2
  tensor::Matrix boundary_uv_;     // Nb x 2 target (u, v)
  std::shared_ptr<const cfd::LdcSolution> reference_;
};

}  // namespace sgm::pinn
