#include "cfd/ldc_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "cfd/wavefront.hpp"

namespace sgm::cfd {

using tensor::Matrix;

double LdcSolution::sample(const Matrix& field, double x, double y) const {
  const double cx = std::clamp(x, 0.0, 1.0) / h;
  const double cy = std::clamp(y, 0.0, 1.0) / h;
  const int i0 = std::min(static_cast<int>(cx), n - 2);
  const int j0 = std::min(static_cast<int>(cy), n - 2);
  const double fx = cx - i0, fy = cy - j0;
  // Row index is y, column index is x.
  const double f00 = field(j0, i0), f10 = field(j0, i0 + 1);
  const double f01 = field(j0 + 1, i0), f11 = field(j0 + 1, i0 + 1);
  return f00 * (1 - fx) * (1 - fy) + f10 * fx * (1 - fy) +
         f01 * (1 - fx) * fy + f11 * fx * fy;
}

namespace {

constexpr double kPsiRelaxation = 1.8;  ///< SOR factor for the Poisson solve
constexpr int kPsiSweeps = 5;           ///< Poisson sweeps per outer iteration
constexpr int kMinCoarseGrid = 17;      ///< smallest grid of the nesting

/// Outer iterations on one grid from the state in `sol` until the stopping
/// rule holds, an update is non-finite, or `max_iterations` run out.
void iterate(LdcSolution& sol, const LdcOptions& opt) {
  const int n = sol.n;
  const double h = sol.h;
  const double inv_re_h2 = 1.0 / (opt.reynolds * h * h);
  Matrix& u = sol.u;
  Matrix& v = sol.v;
  Matrix& psi = sol.psi;
  Matrix& omega = sol.omega;
  // The sweeps index raw storage: a store through Matrix& could alias the
  // matrices' own members, which would force a reload after every update.
  double* const p = psi.data();
  double* const w = omega.data();
  const double* const u_data = u.data();
  const double* const v_data = v.data();

  for (int outer = 0; outer < opt.max_iterations; ++outer) {
    // --- Streamfunction Poisson solve: nabla^2 psi = -omega (SOR) ---
    for (int sweep = 0; sweep < kPsiSweeps; ++sweep) {
      wavefront_sweep(n, [=](std::ptrdiff_t k) {
        const double gs =
            0.25 * (p[k + 1] + p[k - 1] + p[k + n] + p[k - n] + h * h * w[k]);
        p[k] += kPsiRelaxation * (gs - p[k]);
      });
    }

    // --- Velocities from the streamfunction (central differences) ---
    for (int j = 1; j < n - 1; ++j) {
      for (int i = 1; i < n - 1; ++i) {
        u(j, i) = (psi(j + 1, i) - psi(j - 1, i)) / (2 * h);
        v(j, i) = -(psi(j, i + 1) - psi(j, i - 1)) / (2 * h);
      }
    }

    // --- Wall vorticity via Thom's formula ---
    for (int i = 0; i < n; ++i) {
      omega(0, i) = -2.0 * psi(1, i) / (h * h);              // bottom
      omega(n - 1, i) = -2.0 * psi(n - 2, i) / (h * h) -
                        2.0 * opt.lid_velocity / h;          // moving lid
    }
    for (int j = 0; j < n; ++j) {
      omega(j, 0) = -2.0 * psi(j, 1) / (h * h);              // left
      omega(j, n - 1) = -2.0 * psi(j, n - 2) / (h * h);      // right
    }

    // --- Vorticity transport: first-order upwind, Gauss-Seidel ---
    double max_delta = 0.0;
    bool finite = true;  // std::max drops a NaN, so track it separately
    wavefront_sweep(n, [&](std::ptrdiff_t k) {
      const double uij = u_data[k], vij = v_data[k];
      const double ae = inv_re_h2 + std::max(-uij, 0.0) / h;
      const double aw = inv_re_h2 + std::max(uij, 0.0) / h;
      const double an = inv_re_h2 + std::max(-vij, 0.0) / h;
      const double as = inv_re_h2 + std::max(vij, 0.0) / h;
      const double ap = ae + aw + an + as;
      const double wnew =
          (ae * w[k + 1] + aw * w[k - 1] + an * w[k + n] + as * w[k - n]) / ap;
      const double delta = wnew - w[k];
      max_delta = std::max(max_delta, std::fabs(delta));
      finite = finite && std::isfinite(delta);
      w[k] = wnew;
    });

    sol.iterations = outer + 1;
    if (!finite) return;
    if (max_delta < opt.tolerance && outer > 10) {
      sol.converged = true;
      return;
    }
  }
}

/// Solves on grid n, started from the bilinear prolongation of the solve
/// on grid (n + 1) / 2 when n - 1 is even and that grid is not too small,
/// and from rest otherwise.
LdcSolution solve_nested(int n, const LdcOptions& opt) {
  LdcSolution sol;
  sol.n = n;
  sol.h = 1.0 / (n - 1);
  sol.u = Matrix(n, n);
  sol.v = Matrix(n, n);
  sol.psi = Matrix(n, n);
  sol.omega = Matrix(n, n);
  for (int i = 0; i < n; ++i) sol.u(n - 1, i) = opt.lid_velocity;

  const int coarse_n = (n - 1) / 2 + 1;
  if ((n - 1) % 2 == 0 && coarse_n >= kMinCoarseGrid) {
    const LdcSolution coarse = solve_nested(coarse_n, opt);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        sol.psi(j, i) = coarse.sample(coarse.psi, i * sol.h, j * sol.h);
        sol.omega(j, i) = coarse.sample(coarse.omega, i * sol.h, j * sol.h);
      }
    }
  }
  iterate(sol, opt);
  return sol;
}

}  // namespace

LdcSolution solve_lid_driven_cavity(const LdcOptions& opt) {
  if (opt.n < 8) throw std::invalid_argument("LDC: grid too small");
  if (!std::isfinite(opt.reynolds) || opt.reynolds <= 0)
    throw std::invalid_argument("LDC: Re must be finite and > 0");
  if (!std::isfinite(opt.lid_velocity))
    throw std::invalid_argument("LDC: lid velocity must be finite");
  if (!std::isfinite(opt.tolerance) || opt.tolerance <= 0)
    throw std::invalid_argument("LDC: tolerance must be finite and > 0");
  if (opt.max_iterations < 1)
    throw std::invalid_argument("LDC: max_iterations must be >= 1");
  return solve_nested(opt.n, opt);
}

const std::vector<std::pair<double, double>>& ghia_re100_u_centerline() {
  // Ghia, Ghia & Shin (1982), Table I, Re = 100: u along x = 0.5.
  static const std::vector<std::pair<double, double>> data = {
      {0.0000, 0.00000},  {0.0547, -0.03717}, {0.0625, -0.04192},
      {0.0703, -0.04775}, {0.1016, -0.06434}, {0.1719, -0.10150},
      {0.2813, -0.15662}, {0.4531, -0.21090}, {0.5000, -0.20581},
      {0.6172, -0.13641}, {0.7344, 0.00332},  {0.8516, 0.23151},
      {0.9531, 0.68717},  {0.9609, 0.73722},  {0.9688, 0.78871},
      {0.9766, 0.84123},  {1.0000, 1.00000}};
  return data;
}

const std::vector<std::pair<double, double>>& ghia_re100_v_centerline() {
  // Ghia, Ghia & Shin (1982), Table II, Re = 100: v along y = 0.5.
  static const std::vector<std::pair<double, double>> data = {
      {0.0000, 0.00000},  {0.0625, 0.09233},  {0.0703, 0.10091},
      {0.0781, 0.10890},  {0.0938, 0.12317},  {0.1563, 0.16077},
      {0.2266, 0.17507},  {0.2344, 0.17527},  {0.5000, 0.05454},
      {0.8047, -0.24533}, {0.8594, -0.22445}, {0.9063, -0.16914},
      {0.9453, -0.10313}, {0.9531, -0.08864}, {0.9609, -0.07391},
      {0.9688, -0.05906}, {1.0000, 0.00000}};
  return data;
}

}  // namespace sgm::cfd
