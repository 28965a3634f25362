#include "pinn/burgers.hpp"

#include <cmath>

#include "cfd/analytic.hpp"
#include "pinn/loss.hpp"
#include "pinn/point_cloud.hpp"

namespace sgm::pinn {

using tensor::Matrix;
using tensor::Tape;
using tensor::VarId;

BurgersProblem::BurgersProblem(const Options& options) : opt_(options) {
  util::Rng rng(opt_.seed);

  interior_ = Matrix(opt_.interior_points, 2);
  for (std::size_t i = 0; i < opt_.interior_points; ++i) {
    interior_(i, 0) = rng.uniform(-1.0, 1.0);
    interior_(i, 1) = rng.uniform(0.0, opt_.t_final);
  }

  // IC line (t = 0) followed by the two walls (x = -1 and x = +1, u = 0).
  const std::size_t nb = opt_.initial_points + 2 * opt_.wall_points;
  boundary_ = Matrix(nb, 2);
  boundary_value_ = Matrix(nb, 1);
  std::size_t row = 0;
  for (std::size_t i = 0; i < opt_.initial_points; ++i, ++row) {
    const double x = rng.uniform(-1.0, 1.0);
    boundary_(row, 0) = x;
    boundary_(row, 1) = 0.0;
    boundary_value_(row, 0) = -std::sin(M_PI * x);
  }
  for (const double wall : {-1.0, 1.0}) {
    for (std::size_t i = 0; i < opt_.wall_points; ++i, ++row) {
      boundary_(row, 0) = wall;
      boundary_(row, 1) = rng.uniform(0.0, opt_.t_final);
      boundary_value_(row, 0) = 0.0;
    }
  }

  // Validation grid with the exact Cole–Hopf reference, computed once.
  const std::size_t nv = opt_.validation_nx * opt_.validation_nt;
  validation_pts_ = Matrix(nv, 2);
  validation_ref_.resize(nv);
  const auto xs = linspace(-1.0, 1.0, opt_.validation_nx);
  std::size_t v = 0;
  for (std::size_t j = 1; j <= opt_.validation_nt; ++j) {
    const double t =
        opt_.t_final * static_cast<double>(j) / opt_.validation_nt;
    for (std::size_t i = 0; i < opt_.validation_nx; ++i, ++v) {
      validation_pts_(v, 0) = xs[i];
      validation_pts_(v, 1) = t;
      validation_ref_[v] =
          cfd::burgers_cole_hopf_solution(xs[i], t, opt_.nu);
    }
  }
}

VarId BurgersProblem::residual_on_tape(Tape& tape, const nn::Mlp& net,
                                       const nn::Mlp::Binding& binding,
                                       const Matrix& batch) const {
  // Input dim 0 = x, dim 1 = t: dy[0] = u_x, dy[1] = u_t, d2y[0] = u_xx.
  auto out = net.forward_on_tape(tape, binding, batch, /*n_deriv=*/2);
  const VarId convection = tensor::mul(tape, out.y, out.dy[0]);
  const VarId diffusion = tensor::scale(tape, out.d2y[0], -opt_.nu);
  return tensor::add(tape, out.dy[1], tensor::add(tape, convection, diffusion));
}

VarId BurgersProblem::batch_loss(Tape& tape, const nn::Mlp& net,
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
  Matrix btarget(nb, 1);
  for (std::size_t i = 0; i < nb; ++i)
    btarget(i, 0) = boundary_value_(brows[i], 0);

  auto bout = net.forward_on_tape(tape, binding, bpts, /*n_deriv=*/0);
  const VarId bresidual =
      tensor::sub(tape, bout.y, tape.constant(std::move(btarget)));

  return combine(tape, {{"pde", mse(tape, residual), 1.0},
                        {"bc", mse(tape, bresidual), opt_.boundary_weight}});
}

std::vector<double> BurgersProblem::pointwise_residual(
    const nn::Mlp& net, const std::vector<std::uint32_t>& rows) const {
  return evaluate_in_blocks(
      net, gather_rows(interior_, rows), [&](Tape& t, auto& b, auto& x) {
        return tensor::square(t, residual_on_tape(t, net, b, x));
      });
}

std::vector<ValidationEntry> BurgersProblem::validate(
    const nn::Mlp& net) const {
  const Matrix pred = net.forward(validation_pts_);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < validation_ref_.size(); ++i) {
    const double d = pred(i, 0) - validation_ref_[i];
    num += d * d;
    den += validation_ref_[i] * validation_ref_[i];
  }
  return {{"u", std::sqrt(num / (den > 0 ? den : 1.0))}};
}

}  // namespace sgm::pinn
