#include "pinn/navier_stokes.hpp"

#include <cmath>

#include "pinn/geometry.hpp"
#include "pinn/loss.hpp"
#include "pinn/point_cloud.hpp"

namespace sgm::pinn {

using tensor::Matrix;
using tensor::Tape;
using tensor::VarId;

NsResiduals navier_stokes_residuals(Tape& tape,
                                    const nn::Mlp::TapeOutputs& out,
                                    double nu, VarId nu_t) {
  const VarId u = tensor::col(tape, out.y, 0);
  const VarId v = tensor::col(tape, out.y, 1);
  const VarId ux = tensor::col(tape, out.dy[0], 0);
  const VarId uy = tensor::col(tape, out.dy[1], 0);
  const VarId vx = tensor::col(tape, out.dy[0], 1);
  const VarId vy = tensor::col(tape, out.dy[1], 1);
  const VarId px = tensor::col(tape, out.dy[0], 2);
  const VarId py = tensor::col(tape, out.dy[1], 2);
  const VarId uxx = tensor::col(tape, out.d2y[0], 0);
  const VarId uyy = tensor::col(tape, out.d2y[1], 0);
  const VarId vxx = tensor::col(tape, out.d2y[0], 1);
  const VarId vyy = tensor::col(tape, out.d2y[1], 1);

  NsResiduals r;
  r.continuity = tensor::add(tape, ux, vy);

  const VarId lap_u = tensor::add(tape, uxx, uyy);
  const VarId lap_v = tensor::add(tape, vxx, vyy);
  VarId visc_u, visc_v;
  if (nu_t == tensor::kNoVar) {
    visc_u = tensor::scale(tape, lap_u, nu);
    visc_v = tensor::scale(tape, lap_v, nu);
  } else {
    const VarId nu_eff = tensor::add_scalar(tape, nu_t, nu);
    visc_u = tensor::mul(tape, nu_eff, lap_u);
    visc_v = tensor::mul(tape, nu_eff, lap_v);
  }

  const VarId conv_u = tensor::add(tape, tensor::mul(tape, u, ux),
                                   tensor::mul(tape, v, uy));
  const VarId conv_v = tensor::add(tape, tensor::mul(tape, u, vx),
                                   tensor::mul(tape, v, vy));
  r.momentum_x =
      tensor::sub(tape, tensor::add(tape, conv_u, px), visc_u);
  r.momentum_y =
      tensor::sub(tape, tensor::add(tape, conv_v, py), visc_v);
  return r;
}

LdcProblem::LdcProblem(const Options& options,
                       std::shared_ptr<const cfd::LdcSolution> reference)
    : opt_(options),
      nu_(options.lid_velocity / options.reynolds),
      reference_(std::move(reference)) {
  util::Rng rng(opt_.seed);
  Rectangle square(0, 1, 0, 1);
  interior_ = square.sample_interior(opt_.interior_points, rng);

  const std::size_t per_side = opt_.boundary_points / 4;
  boundary_ = Matrix(4 * per_side, 2);
  boundary_uv_ = Matrix(4 * per_side, 2);
  const Rectangle::Side sides[4] = {
      Rectangle::Side::kBottom, Rectangle::Side::kTop, Rectangle::Side::kLeft,
      Rectangle::Side::kRight};
  std::size_t row = 0;
  for (const auto side : sides) {
    Matrix pts = square.sample_side(side, per_side, rng);
    for (std::size_t i = 0; i < per_side; ++i, ++row) {
      boundary_(row, 0) = pts(i, 0);
      boundary_(row, 1) = pts(i, 1);
      boundary_uv_(row, 0) =
          side == Rectangle::Side::kTop ? opt_.lid_velocity : 0.0;
      boundary_uv_(row, 1) = 0.0;
    }
  }
}

LdcProblem::BatchTerms LdcProblem::interior_terms(
    Tape& tape, const nn::Mlp& net, const nn::Mlp::Binding& binding,
    const Matrix& batch) const {
  auto out = net.forward_on_tape(tape, binding, batch, /*n_deriv=*/2);

  VarId nu_t = tensor::kNoVar;
  Matrix wall_d(batch.rows(), 1);
  for (std::size_t i = 0; i < batch.rows(); ++i)
    wall_d(i, 0) = unit_square_wall_distance(batch(i, 0), batch(i, 1));
  if (opt_.zero_equation)
    nu_t = zero_eq_nu_t(tape, out, 0, 1, wall_d, opt_.zero_eq);

  const NsResiduals res = navier_stokes_residuals(tape, out, nu_, nu_t);

  // Per-point squared residual (continuity + both momenta) — used both by
  // the loss and by the samplers' importance signal.
  const VarId per_point = tensor::add(
      tape, tensor::square(tape, res.continuity),
      tensor::add(tape, tensor::square(tape, res.momentum_x),
                  tensor::square(tape, res.momentum_y)));

  BatchTerms terms;
  terms.residual_sq_per_point = per_point;
  if (opt_.sdf_weighting) {
    terms.loss = tensor::weighted_mean(tape, per_point, wall_d);
  } else {
    terms.loss = tensor::mean_all(tape, per_point);
  }
  return terms;
}

VarId LdcProblem::batch_loss(Tape& tape, const nn::Mlp& net,
                             const nn::Mlp::Binding& binding,
                             const std::vector<std::uint32_t>& rows,
                             util::Rng& rng) const {
  const Matrix batch = gather_rows(interior_, rows);
  const BatchTerms terms = interior_terms(tape, net, binding, batch);

  // No-slip / moving-lid boundary mini-batch.
  const std::size_t nb =
      std::min<std::size_t>(opt_.boundary_batch, boundary_.rows());
  std::vector<std::uint32_t> brows(nb);
  for (auto& b : brows)
    b = static_cast<std::uint32_t>(rng.uniform_index(boundary_.rows()));
  const Matrix bpts = gather_rows(boundary_, brows);
  Matrix btarget(nb, 2);
  for (std::size_t i = 0; i < nb; ++i) {
    btarget(i, 0) = boundary_uv_(brows[i], 0);
    btarget(i, 1) = boundary_uv_(brows[i], 1);
  }
  auto bout = net.forward_on_tape(tape, binding, bpts, /*n_deriv=*/0);
  const VarId bu = tensor::col(tape, bout.y, 0);
  const VarId bv = tensor::col(tape, bout.y, 1);
  Matrix bu_t(nb, 1), bv_t(nb, 1);
  for (std::size_t i = 0; i < nb; ++i) {
    bu_t(i, 0) = btarget(i, 0);
    bv_t(i, 0) = btarget(i, 1);
  }
  const VarId bres_u = tensor::sub(tape, bu, tape.constant(std::move(bu_t)));
  const VarId bres_v = tensor::sub(tape, bv, tape.constant(std::move(bv_t)));
  const VarId bc_loss =
      tensor::add(tape, mse(tape, bres_u), mse(tape, bres_v));

  // Pressure gauge: cavity pressure is defined up to a constant; a tiny
  // penalty on the batch-mean pressure pins the gauge without biasing
  // gradients materially.
  const VarId p = tensor::col(tape, bout.y, 2);
  const VarId gauge = tensor::square(tape, tensor::mean_all(tape, p));

  return combine(tape, {{"pde", terms.loss, 1.0},
                        {"bc", bc_loss, opt_.boundary_weight},
                        {"gauge", gauge, 0.01}});
}

std::vector<double> LdcProblem::pointwise_residual(
    const nn::Mlp& net, const std::vector<std::uint32_t>& rows) const {
  return evaluate_in_blocks(
      net, gather_rows(interior_, rows), [&](Tape& t, auto& b, auto& x) {
        return interior_terms(t, net, b, x).residual_sq_per_point;
      });
}

std::vector<ValidationEntry> LdcProblem::validate(const nn::Mlp& net) const {
  if (!reference_) return {};
  const cfd::LdcSolution& ref = *reference_;
  const Matrix grid = make_grid(0.03, 0.97, 40, 0.03, 0.97, 40);
  const Matrix pred = net.forward(grid);

  double num_u = 0, den_u = 0, num_v = 0, den_v = 0;
  for (std::size_t i = 0; i < grid.rows(); ++i) {
    const double x = grid(i, 0), y = grid(i, 1);
    const double ru = ref.sample_u(x, y), rv = ref.sample_v(x, y);
    const double du = pred(i, 0) - ru, dv = pred(i, 1) - rv;
    num_u += du * du;
    den_u += ru * ru;
    num_v += dv * dv;
    den_v += rv * rv;
  }
  std::vector<ValidationEntry> out;
  out.push_back({"u", std::sqrt(num_u / (den_u > 0 ? den_u : 1.0))});
  out.push_back({"v", std::sqrt(num_v / (den_v > 0 ? den_v : 1.0))});

  if (opt_.zero_equation) {
    // nu_t from the network's derivatives vs nu_t evaluated on the FD
    // reference velocity field (central differences at grid spacing).
    double num_n = 0, den_n = 0;
    const double h = ref.h;
    const std::vector<double> j = evaluate_in_blocks(
        net, grid, [&](Tape& t, auto& b, auto& x) {
          const auto out = net.forward_on_tape(t, b, x, /*n_deriv=*/2);
          return tensor::hcat(t, out.dy[0], out.dy[1]);
        });
    for (std::size_t i = 0; i < grid.rows(); ++i) {
      const double x = grid(i, 0), y = grid(i, 1);
      // PINN nu_t; j holds [u_x v_x p_x u_y v_y p_y] per grid point.
      const double ux = j[6 * i], vx = j[6 * i + 1];
      const double uy = j[6 * i + 3], vy = j[6 * i + 4];
      const double g_pred = 2 * (ux * ux + vy * vy) + (uy + vx) * (uy + vx);
      const double lm = mixing_length(unit_square_wall_distance(x, y),
                                      opt_.zero_eq);
      const double nut_pred = lm * lm * std::sqrt(std::max(g_pred, 0.0));
      // Reference nu_t from FD derivatives of the reference field.
      const double rux = (ref.sample_u(x + h, y) - ref.sample_u(x - h, y)) /
                         (2 * h);
      const double ruy = (ref.sample_u(x, y + h) - ref.sample_u(x, y - h)) /
                         (2 * h);
      const double rvx = (ref.sample_v(x + h, y) - ref.sample_v(x - h, y)) /
                         (2 * h);
      const double rvy = (ref.sample_v(x, y + h) - ref.sample_v(x, y - h)) /
                         (2 * h);
      const double g_ref =
          2 * (rux * rux + rvy * rvy) + (ruy + rvx) * (ruy + rvx);
      const double nut_ref = lm * lm * std::sqrt(std::max(g_ref, 0.0));
      const double d = nut_pred - nut_ref;
      num_n += d * d;
      den_n += nut_ref * nut_ref;
    }
    out.push_back({"nu", std::sqrt(num_n / (den_n > 0 ? den_n : 1.0))});
  }
  return out;
}

}  // namespace sgm::pinn
