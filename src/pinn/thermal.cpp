#include "pinn/thermal.hpp"

#include <cmath>

#include "pinn/geometry.hpp"
#include "pinn/loss.hpp"
#include "pinn/point_cloud.hpp"

namespace sgm::pinn {

using tensor::Matrix;
using tensor::Tape;
using tensor::VarId;

namespace {
// Smooth step: 0 -> 1 over a width `w` transition centered at the edge.
inline double smooth_edge(double d, double w) {
  if (w <= 0.0) return d >= 0.0 ? 1.0 : 0.0;
  return 0.5 * (1.0 + std::tanh(d / w));
}
}  // namespace

std::vector<PowerBlock> ChipThermalProblem::default_floorplan() {
  return {
      {0.15, 0.35, 0.55, 0.85, 40.0, 0.02},  // core 0 (hot)
      {0.60, 0.80, 0.60, 0.80, 55.0, 0.02},  // core 1 (hotter)
      {0.20, 0.80, 0.15, 0.30, 8.0, 0.02},   // cache / uncore (wide, mild)
  };
}

ChipThermalProblem::ChipThermalProblem(const Options& options)
    : opt_(options) {
  if (opt_.blocks.empty()) opt_.blocks = default_floorplan();

  util::Rng rng(opt_.seed);
  Rectangle die(0, 1, 0, 1);
  interior_ = die.sample_interior(opt_.interior_points, rng);

  const std::size_t per_side = opt_.boundary_points / 4;
  boundary_ = Matrix(4 * per_side, 2);
  const Rectangle::Side sides[4] = {
      Rectangle::Side::kBottom, Rectangle::Side::kTop, Rectangle::Side::kLeft,
      Rectangle::Side::kRight};
  std::size_t row = 0;
  for (const auto side : sides) {
    Matrix pts = die.sample_side(side, per_side, rng);
    for (std::size_t i = 0; i < per_side; ++i, ++row) {
      boundary_(row, 0) = pts(i, 0);
      boundary_(row, 1) = pts(i, 1);
    }
  }

  // FDM reference with the same (smoothed) source the PINN sees.
  cfd::PoissonFdmOptions fopt;
  fopt.n = opt_.reference_grid;
  auto ref = cfd::solve_poisson_dirichlet(
      [this](double x, double y) { return power_density(x, y); }, fopt);
  reference_peak_ = ref.t.max_abs();
  reference_ =
      std::make_shared<const cfd::PoissonFdmSolution>(std::move(ref));
}

double ChipThermalProblem::power_density(double x, double y) const {
  double q = 0.0;
  for (const auto& b : opt_.blocks) {
    const double wx = b.edge_softness * (b.xmax - b.xmin);
    const double wy = b.edge_softness * (b.ymax - b.ymin);
    const double gx =
        smooth_edge(x - b.xmin, wx) * smooth_edge(b.xmax - x, wx);
    const double gy =
        smooth_edge(y - b.ymin, wy) * smooth_edge(b.ymax - y, wy);
    q += b.density * gx * gy;
  }
  return q;
}

VarId ChipThermalProblem::residual_on_tape(Tape& tape, const nn::Mlp& net,
                                           const nn::Mlp::Binding& binding,
                                           const Matrix& batch) const {
  auto out = net.forward_on_tape(tape, binding, batch, /*n_deriv=*/2);
  Matrix q(batch.rows(), 1);
  for (std::size_t i = 0; i < batch.rows(); ++i)
    q(i, 0) = power_density(batch(i, 0), batch(i, 1));
  // residual = T_xx + T_yy + q  (so -lap T = q <=> residual = 0)
  const VarId lap = tensor::add(tape, out.d2y[0], out.d2y[1]);
  return tensor::add(tape, lap, tape.constant(std::move(q)));
}

VarId ChipThermalProblem::batch_loss(Tape& tape, const nn::Mlp& net,
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
  // Heat-sink boundary: T = 0.
  return combine(tape,
                 {{"pde", mse(tape, residual), 1.0},
                  {"bc", mse(tape, bout.y), opt_.boundary_weight}});
}

std::vector<double> ChipThermalProblem::pointwise_residual(
    const nn::Mlp& net, const std::vector<std::uint32_t>& rows) const {
  return evaluate_in_blocks(
      net, gather_rows(interior_, rows), [&](Tape& t, auto& b, auto& x) {
        return tensor::square(t, residual_on_tape(t, net, b, x));
      });
}

std::vector<ValidationEntry> ChipThermalProblem::validate(
    const nn::Mlp& net) const {
  const Matrix grid = make_grid(0.02, 0.98, 48, 0.02, 0.98, 48);
  const Matrix pred = net.forward(grid);
  double num = 0, den = 0, peak_err = 0;
  for (std::size_t i = 0; i < grid.rows(); ++i) {
    const double ref = reference_->sample(grid(i, 0), grid(i, 1));
    const double d = pred(i, 0) - ref;
    num += d * d;
    den += ref * ref;
    peak_err = std::max(peak_err, std::fabs(d));
  }
  return {{"T", std::sqrt(num / (den > 0 ? den : 1.0))},
          {"T_peak_abs", peak_err / std::max(reference_peak_, 1e-300)}};
}

}  // namespace sgm::pinn
