#include "pinn/annular.hpp"

#include <cmath>

#include "pinn/loss.hpp"
#include "pinn/point_cloud.hpp"

namespace sgm::pinn {

using tensor::Matrix;
using tensor::Tape;
using tensor::VarId;

AnnularProblem::AnnularProblem(const Options& options) : opt_(options) {
  util::Rng rng(opt_.seed);

  // Interior cloud: each point carries its own geometry parameter r_i.
  interior_ = Matrix(opt_.interior_points, 3);
  for (std::size_t i = 0; i < opt_.interior_points; ++i) {
    const double ri = rng.uniform(opt_.r_inner_min, opt_.r_inner_max);
    interior_(i, 0) = rng.uniform(0.0, opt_.length);
    interior_(i, 1) = rng.uniform(ri, opt_.r_outer);
    interior_(i, 2) = ri;
  }

  // Boundary cloud: four groups — inner wall, outer wall, inlet, outlet.
  const std::size_t per_group = opt_.boundary_points / 4;
  boundary_ = Matrix(4 * per_group, 3);
  boundary_tgt_ = Matrix(4 * per_group, 4);
  std::size_t row = 0;
  const double p_in = opt_.pressure_gradient * opt_.length;
  for (int group = 0; group < 4; ++group) {
    for (std::size_t i = 0; i < per_group; ++i, ++row) {
      const double ri = rng.uniform(opt_.r_inner_min, opt_.r_inner_max);
      double z = 0, r = 0, tu = 0, tv = 0, tp = 0, mask = 1;
      switch (group) {
        case 0:  // inner wall: no-slip
          z = rng.uniform(0.0, opt_.length);
          r = ri;
          break;
        case 1:  // outer wall: no-slip
          z = rng.uniform(0.0, opt_.length);
          r = opt_.r_outer;
          break;
        case 2:  // inlet: p = g L, v = 0
          z = 0.0;
          r = rng.uniform(ri, opt_.r_outer);
          tp = p_in;
          mask = 0;
          break;
        case 3:  // outlet: p = 0, v = 0
          z = opt_.length;
          r = rng.uniform(ri, opt_.r_outer);
          tp = 0.0;
          mask = 0;
          break;
      }
      boundary_(row, 0) = z;
      boundary_(row, 1) = r;
      boundary_(row, 2) = ri;
      boundary_tgt_(row, 0) = tu;
      boundary_tgt_(row, 1) = tv;
      boundary_tgt_(row, 2) = tp;
      boundary_tgt_(row, 3) = mask;
    }
  }
}

cfd::AnnularPoiseuille AnnularProblem::reference(double r_inner) const {
  cfd::AnnularPoiseuille ref;
  ref.r_inner = r_inner;
  ref.r_outer = opt_.r_outer;
  ref.pressure_gradient = opt_.pressure_gradient;
  ref.nu = opt_.nu;
  return ref;
}

VarId AnnularProblem::residual_sq_on_tape(Tape& tape, const nn::Mlp& net,
                                          const nn::Mlp::Binding& binding,
                                          const Matrix& batch) const {
  // Derivatives w.r.t. dims 0 (z) and 1 (r); dim 2 (r_i) is a parameter.
  auto out = net.forward_on_tape(tape, binding, batch, /*n_deriv=*/2);

  const VarId u = tensor::col(tape, out.y, 0);
  const VarId v = tensor::col(tape, out.y, 1);
  const VarId uz = tensor::col(tape, out.dy[0], 0);
  const VarId ur = tensor::col(tape, out.dy[1], 0);
  const VarId vz = tensor::col(tape, out.dy[0], 1);
  const VarId vr = tensor::col(tape, out.dy[1], 1);
  const VarId pz = tensor::col(tape, out.dy[0], 2);
  const VarId pr = tensor::col(tape, out.dy[1], 2);
  const VarId uzz = tensor::col(tape, out.d2y[0], 0);
  const VarId urr = tensor::col(tape, out.d2y[1], 0);
  const VarId vzz = tensor::col(tape, out.d2y[0], 1);
  const VarId vrr = tensor::col(tape, out.d2y[1], 1);

  // Constant per-point 1/r and 1/r^2 columns.
  Matrix inv_r(batch.rows(), 1), inv_r2(batch.rows(), 1);
  for (std::size_t i = 0; i < batch.rows(); ++i) {
    const double r = std::max(batch(i, 1), 1e-9);
    inv_r(i, 0) = 1.0 / r;
    inv_r2(i, 0) = 1.0 / (r * r);
  }
  const VarId c_inv_r = tape.constant(std::move(inv_r));
  const VarId c_inv_r2 = tape.constant(std::move(inv_r2));

  // continuity: u_z + v_r + v / r
  const VarId cont = tensor::add(
      tape, tensor::add(tape, uz, vr), tensor::mul(tape, v, c_inv_r));

  // momentum-z: u u_z + v u_r + p_z - nu (u_zz + u_rr + u_r / r)
  const VarId conv_u = tensor::add(tape, tensor::mul(tape, u, uz),
                                   tensor::mul(tape, v, ur));
  const VarId lap_u = tensor::add(tape, tensor::add(tape, uzz, urr),
                                  tensor::mul(tape, ur, c_inv_r));
  const VarId mom_z = tensor::sub(tape, tensor::add(tape, conv_u, pz),
                                  tensor::scale(tape, lap_u, opt_.nu));

  // momentum-r: u v_z + v v_r + p_r - nu (v_zz + v_rr + v_r / r - v / r^2)
  const VarId conv_v = tensor::add(tape, tensor::mul(tape, u, vz),
                                   tensor::mul(tape, v, vr));
  const VarId lap_v = tensor::sub(
      tape,
      tensor::add(tape, tensor::add(tape, vzz, vrr),
                  tensor::mul(tape, vr, c_inv_r)),
      tensor::mul(tape, v, c_inv_r2));
  const VarId mom_r = tensor::sub(tape, tensor::add(tape, conv_v, pr),
                                  tensor::scale(tape, lap_v, opt_.nu));

  return tensor::add(tape, tensor::square(tape, cont),
                     tensor::add(tape, tensor::square(tape, mom_z),
                                 tensor::square(tape, mom_r)));
}

VarId AnnularProblem::batch_loss(Tape& tape, const nn::Mlp& net,
                                 const nn::Mlp::Binding& binding,
                                 const std::vector<std::uint32_t>& rows,
                                 util::Rng& rng) const {
  const Matrix batch = gather_rows(interior_, rows);
  const VarId res_sq = residual_sq_on_tape(tape, net, binding, batch);
  const VarId pde_loss = tensor::mean_all(tape, res_sq);

  // Boundary mini-batch: velocity conditions on walls, pressure + v at the
  // inlet/outlet. `mask` selects which target applies per point.
  const std::size_t nb =
      std::min<std::size_t>(opt_.boundary_batch, boundary_.rows());
  std::vector<std::uint32_t> brows(nb);
  for (auto& b : brows)
    b = static_cast<std::uint32_t>(rng.uniform_index(boundary_.rows()));
  const Matrix bpts = gather_rows(boundary_, brows);
  Matrix tu(nb, 1), tv(nb, 1), tp(nb, 1), mask_uv(nb, 1), mask_p(nb, 1);
  for (std::size_t i = 0; i < nb; ++i) {
    tu(i, 0) = boundary_tgt_(brows[i], 0);
    tv(i, 0) = boundary_tgt_(brows[i], 1);
    tp(i, 0) = boundary_tgt_(brows[i], 2);
    const double m = boundary_tgt_(brows[i], 3);
    mask_uv(i, 0) = m;
    mask_p(i, 0) = 1.0 - m;
  }
  auto bout = net.forward_on_tape(tape, binding, bpts, /*n_deriv=*/0);
  const VarId bu = tensor::col(tape, bout.y, 0);
  const VarId bv = tensor::col(tape, bout.y, 1);
  const VarId bp = tensor::col(tape, bout.y, 2);

  // u target applies only on walls (mask); v applies everywhere (walls and
  // inlet/outlet all impose v = 0); p applies at inlet/outlet (1 - mask).
  const VarId res_u = tensor::mul(tape, tape.constant(mask_uv),
                                  tensor::sub(tape, bu, tape.constant(tu)));
  const VarId res_v = tensor::sub(tape, bv, tape.constant(tv));
  const VarId res_p = tensor::mul(tape, tape.constant(mask_p),
                                  tensor::sub(tape, bp, tape.constant(tp)));
  const VarId bc_loss =
      tensor::add(tape, mse(tape, res_u),
                  tensor::add(tape, mse(tape, res_v), mse(tape, res_p)));

  return combine(tape, {{"pde", pde_loss, 1.0},
                        {"bc", bc_loss, opt_.boundary_weight}});
}

std::vector<double> AnnularProblem::pointwise_residual(
    const nn::Mlp& net, const std::vector<std::uint32_t>& rows) const {
  return evaluate_in_blocks(
      net, gather_rows(interior_, rows), [&](Tape& t, auto& b, auto& x) {
        return residual_sq_on_tape(t, net, b, x);
      });
}

std::vector<ValidationEntry> AnnularProblem::validate_at(
    const nn::Mlp& net, double r_inner) const {
  const cfd::AnnularPoiseuille ref = reference(r_inner);
  const std::size_t nz = 24, nr = 48;
  Matrix grid(nz * nr, 3);
  std::size_t row = 0;
  for (std::size_t iz = 0; iz < nz; ++iz) {
    const double z = opt_.length * (iz + 0.5) / nz;
    for (std::size_t ir = 0; ir < nr; ++ir) {
      const double r = r_inner +
                       (opt_.r_outer - r_inner) * (ir + 0.5) / nr;
      grid(row, 0) = z;
      grid(row, 1) = r;
      grid(row, 2) = r_inner;
      ++row;
    }
  }
  const Matrix pred = net.forward(grid);

  double num_u = 0, den_u = 0, num_v = 0, num_p = 0, den_p = 0;
  for (std::size_t i = 0; i < grid.rows(); ++i) {
    const double ru = ref.axial_velocity(grid(i, 1));
    const double rp = ref.pressure(grid(i, 0), opt_.length);
    const double du = pred(i, 0) - ru;
    const double dp = pred(i, 2) - rp;
    num_u += du * du;
    den_u += ru * ru;
    num_v += pred(i, 1) * pred(i, 1);
    num_p += dp * dp;
    den_p += rp * rp;
  }
  return {{"u", std::sqrt(num_u / (den_u > 0 ? den_u : 1.0))},
          {"v", std::sqrt(num_v / (den_u > 0 ? den_u : 1.0))},
          {"p", std::sqrt(num_p / (den_p > 0 ? den_p : 1.0))}};
}

std::vector<ValidationEntry> AnnularProblem::validate(
    const nn::Mlp& net) const {
  // Paper validates at r_i = 1.0, 0.875, 0.75 and averages.
  const double radii[3] = {1.0, 0.875, 0.75};
  double u = 0, v = 0, p = 0;
  for (double ri : radii) {
    auto e = validate_at(net, ri);
    u += e[0].error;
    v += e[1].error;
    p += e[2].error;
  }
  return {{"u", u / 3}, {"v", v / 3}, {"p", p / 3}};
}

Matrix AnnularProblem::pressure_error_field(const nn::Mlp& net,
                                            double r_inner, std::size_t nz,
                                            std::size_t nr) const {
  const cfd::AnnularPoiseuille ref = reference(r_inner);
  Matrix field(nz * nr, 3);
  Matrix grid(nz * nr, 3);
  std::size_t row = 0;
  for (std::size_t iz = 0; iz < nz; ++iz) {
    const double z = opt_.length * (iz + 0.5) / nz;
    for (std::size_t ir = 0; ir < nr; ++ir) {
      const double r = r_inner + (opt_.r_outer - r_inner) * (ir + 0.5) / nr;
      grid(row, 0) = z;
      grid(row, 1) = r;
      grid(row, 2) = r_inner;
      ++row;
    }
  }
  const Matrix pred = net.forward(grid);
  for (std::size_t i = 0; i < grid.rows(); ++i) {
    field(i, 0) = grid(i, 0);
    field(i, 1) = grid(i, 1);
    field(i, 2) =
        std::fabs(pred(i, 2) - ref.pressure(grid(i, 0), opt_.length));
  }
  return field;
}

}  // namespace sgm::pinn
