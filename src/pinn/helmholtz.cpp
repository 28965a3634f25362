#include "pinn/helmholtz.hpp"

#include <cmath>

#include "cfd/analytic.hpp"
#include "pinn/geometry.hpp"
#include "pinn/loss.hpp"
#include "pinn/point_cloud.hpp"

namespace sgm::pinn {

using tensor::Matrix;
using tensor::Tape;
using tensor::VarId;

HelmholtzProblem::HelmholtzProblem(const Options& options) : opt_(options) {
  util::Rng rng(opt_.seed);
  Rectangle square(0, 1, 0, 1);
  interior_ = square.sample_interior(opt_.interior_points, rng);

  const std::size_t per_side = opt_.boundary_points / 4;
  boundary_ = Matrix(4 * per_side, 2);
  const Rectangle::Side sides[4] = {
      Rectangle::Side::kBottom, Rectangle::Side::kTop, Rectangle::Side::kLeft,
      Rectangle::Side::kRight};
  std::size_t row = 0;
  for (const auto side : sides) {
    Matrix pts = square.sample_side(side, per_side, rng);
    for (std::size_t i = 0; i < per_side; ++i, ++row) {
      boundary_(row, 0) = pts(i, 0);
      boundary_(row, 1) = pts(i, 1);
    }
  }
}

VarId HelmholtzProblem::residual_on_tape(Tape& tape, const nn::Mlp& net,
                                         const nn::Mlp::Binding& binding,
                                         const Matrix& batch) const {
  auto out = net.forward_on_tape(tape, binding, batch, /*n_deriv=*/2);
  Matrix q(batch.rows(), 1);
  for (std::size_t i = 0; i < batch.rows(); ++i)
    q(i, 0) = -cfd::helmholtz_manufactured_rhs(batch(i, 0), batch(i, 1),
                                               opt_.a1, opt_.a2,
                                               opt_.wavenumber);
  // residual = u_xx + u_yy + k^2 u - q.
  const VarId lap = tensor::add(tape, out.d2y[0], out.d2y[1]);
  const VarId k2u =
      tensor::scale(tape, out.y, opt_.wavenumber * opt_.wavenumber);
  return tensor::add(tape, tensor::add(tape, lap, k2u),
                     tape.constant(std::move(q)));
}

VarId HelmholtzProblem::batch_loss(Tape& tape, const nn::Mlp& net,
                                   const nn::Mlp::Binding& binding,
                                   const std::vector<std::uint32_t>& rows,
                                   util::Rng& rng) const {
  const Matrix batch = gather_rows(interior_, rows);
  const VarId residual = residual_on_tape(tape, net, binding, batch);

  const std::size_t nb =
      std::min<std::size_t>(opt_.boundary_batch, boundary_.rows());
  std::vector<std::uint32_t> brows(nb);
  for (auto& b : brows)
    b = static_cast<std::uint32_t>(rng.uniform_index(boundary_.rows()));
  const Matrix bpts = gather_rows(boundary_, brows);
  auto bout = net.forward_on_tape(tape, binding, bpts, /*n_deriv=*/0);
  // Homogeneous Dirichlet walls: u = 0.
  return combine(tape, {{"pde", mse(tape, residual), 1.0},
                        {"bc", mse(tape, bout.y), opt_.boundary_weight}});
}

std::vector<double> HelmholtzProblem::pointwise_residual(
    const nn::Mlp& net, const std::vector<std::uint32_t>& rows) const {
  return evaluate_in_blocks(
      net, gather_rows(interior_, rows), [&](Tape& t, auto& b, auto& x) {
        return tensor::square(t, residual_on_tape(t, net, b, x));
      });
}

std::vector<ValidationEntry> HelmholtzProblem::validate(
    const nn::Mlp& net) const {
  const Matrix grid = make_grid(0.02, 0.98, 48, 0.02, 0.98, 48);
  const Matrix pred = net.forward(grid);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < grid.rows(); ++i) {
    const double ref = cfd::helmholtz_manufactured_solution(
        grid(i, 0), grid(i, 1), opt_.a1, opt_.a2);
    const double d = pred(i, 0) - ref;
    num += d * d;
    den += ref * ref;
  }
  return {{"u", std::sqrt(num / (den > 0 ? den : 1.0))}};
}

}  // namespace sgm::pinn
