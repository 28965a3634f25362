#pragma once
// Finite-difference Poisson solver on the unit square with homogeneous
// Dirichlet boundaries:  -nabla^2 T = f,  T = 0 on the boundary.
//
// Used as the validation-data generator for the chip-thermal example (the
// "chip thermal analysis" CAD workload motivating the paper's intro): f is
// the power-density map of a die, T the temperature rise over the ambient
// heat-sink boundary.
//
// The SOR sweep runs in cfd/wavefront.hpp's order (rows in groups of 8, row
// j0 + r at column t - r at step t), which reads the same new west/south and
// old east/north values as lexicographic order: T and `sweeps` are
// bit-identical to that order's, as the max change per sweep is a max over
// finite values and a non-finite update ends the solve.

#include <functional>

#include "tensor/matrix.hpp"

namespace sgm::cfd {

struct PoissonFdmOptions {
  int n = 129;                ///< grid points per side
  int max_sweeps = 50000;
  double tolerance = 1e-9;    ///< max residual change per sweep to stop
  double relaxation = 1.9;    ///< SOR factor
};

struct PoissonFdmSolution {
  int n = 0;
  double h = 0.0;
  tensor::Matrix t;           ///< (n x n), row = y index, col = x index
  bool converged = false;
  int sweeps = 0;

  /// Bilinear interpolation at (x, y) in [0,1]^2.
  double sample(double x, double y) const;
};

/// Solves -lap T = f with T=0 on the boundary of the unit square. Throws
/// std::invalid_argument on n < 8, a tolerance that is not finite and > 0,
/// or max_sweeps < 1. A non-finite update (say, a NaN source) ends the solve
/// with `converged` false.
PoissonFdmSolution solve_poisson_dirichlet(
    const std::function<double(double, double)>& f,
    const PoissonFdmOptions& options = {});

}  // namespace sgm::cfd
