#pragma once
// Classical finite-difference solver for the steady lid-driven cavity —
// the validation-data generator standing in for the paper's OpenFOAM
// reference fields.
//
// Vorticity-streamfunction formulation on a uniform n x n grid:
//   nabla^2 psi = -omega
//   u dw/dx + v dw/dy = (1/Re) nabla^2 omega
// with Thom's wall formula for boundary vorticity. Each outer iteration runs
// five SOR sweeps of the psi Poisson equation, takes the velocities from psi
// by central differences, and runs one first-order upwind Gauss-Seidel sweep
// of the vorticity transport. A grid stops once max |d omega| of a sweep is
// below `tolerance` after more than 10 outer iterations.
//
// Both Gauss-Seidel sweeps run in cfd/wavefront.hpp's order: interior rows
// in groups of 8, row j0 + r at column t - r at step t. Every node still
// reads new west/south and old east/north values, as in lexicographic
// order, so the fields and `iterations` are bit-identical to that order's,
// and the stopping test is too: max |d omega| is a max over finite values,
// which no order changes, and a non-finite update ends the solve whatever
// the max. The 8 rows are independent chains the core overlaps.
//
// The grids are nested: while n - 1 is even and the coarser grid keeps at
// least 17 points per side, the solve first runs on grid (n + 1) / 2 and
// starts grid n from the bilinear prolongation of its psi and omega
// (81 -> 41 -> 21, solved 21, 41, 81; n = 50 is a single grid). The
// coarsest grid starts from rest. `iterations` and `converged` report the
// finest grid. Verified in tests against the published Ghia, Ghia & Shin
// (1982) centerline profiles.

#include "tensor/matrix.hpp"

namespace sgm::cfd {

struct LdcOptions {
  int n = 129;               ///< grid points per side
  double reynolds = 100.0;
  double lid_velocity = 1.0;
  int max_iterations = 100000;   ///< outer iterations per grid
  double tolerance = 1e-7;       ///< max |d omega| per sweep to stop
};

struct LdcSolution {
  int n = 0;
  double h = 0.0;  ///< grid spacing (domain is the unit square)
  tensor::Matrix u, v, psi, omega;  ///< (n x n), row = y index, col = x index
  bool converged = false;
  int iterations = 0;

  /// Bilinear interpolation of a field at (x, y) in [0,1]^2.
  double sample(const tensor::Matrix& field, double x, double y) const;
  double sample_u(double x, double y) const { return sample(u, x, y); }
  double sample_v(double x, double y) const { return sample(v, x, y); }
};

/// Solves the cavity; throws std::invalid_argument on bad options (n < 8,
/// non-finite or non-positive Re, non-finite lid velocity, tolerance not
/// finite and > 0, max_iterations < 1). A non-finite update ends the solve
/// with `converged` false.
LdcSolution solve_lid_driven_cavity(const LdcOptions& options);

/// Published Ghia et al. (1982) u-velocity along the vertical centerline
/// (x = 0.5) for Re = 100, as (y, u) pairs — test reference data.
const std::vector<std::pair<double, double>>& ghia_re100_u_centerline();

/// Ghia et al. v-velocity along the horizontal centerline (y = 0.5), Re=100.
const std::vector<std::pair<double, double>>& ghia_re100_v_centerline();

}  // namespace sgm::cfd
