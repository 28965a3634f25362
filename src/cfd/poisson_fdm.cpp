#include "cfd/poisson_fdm.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "cfd/wavefront.hpp"

namespace sgm::cfd {

double PoissonFdmSolution::sample(double x, double y) const {
  const double cx = std::clamp(x, 0.0, 1.0) / h;
  const double cy = std::clamp(y, 0.0, 1.0) / h;
  const int i0 = std::min(static_cast<int>(cx), n - 2);
  const int j0 = std::min(static_cast<int>(cy), n - 2);
  const double fx = cx - i0, fy = cy - j0;
  return t(j0, i0) * (1 - fx) * (1 - fy) + t(j0, i0 + 1) * fx * (1 - fy) +
         t(j0 + 1, i0) * (1 - fx) * fy + t(j0 + 1, i0 + 1) * fx * fy;
}

PoissonFdmSolution solve_poisson_dirichlet(
    const std::function<double(double, double)>& f,
    const PoissonFdmOptions& opt) {
  if (opt.n < 8) throw std::invalid_argument("PoissonFdm: grid too small");
  if (!std::isfinite(opt.tolerance) || opt.tolerance <= 0)
    throw std::invalid_argument("PoissonFdm: tolerance must be finite and > 0");
  if (opt.max_sweeps < 1)
    throw std::invalid_argument("PoissonFdm: max_sweeps must be >= 1");
  const int n = opt.n;
  const double h = 1.0 / (n - 1);

  PoissonFdmSolution sol;
  sol.n = n;
  sol.h = h;
  sol.t = tensor::Matrix(n, n);

  // Pre-evaluate the source term at interior nodes.
  tensor::Matrix src(n, n);
  for (int j = 1; j < n - 1; ++j)
    for (int i = 1; i < n - 1; ++i) src(j, i) = f(i * h, j * h);

  // The sweep indexes raw storage (see ldc_solver.cpp).
  double* const t = sol.t.data();
  const double* const q = src.data();
  const double relaxation = opt.relaxation;
  for (int sweep = 0; sweep < opt.max_sweeps; ++sweep) {
    double max_delta = 0.0;
    bool finite = true;  // std::max drops a NaN, so track it separately
    wavefront_sweep(n, [&](std::ptrdiff_t k) {
      const double gs =
          0.25 * (t[k + 1] + t[k - 1] + t[k + n] + t[k - n] + h * h * q[k]);
      const double delta = gs - t[k];
      t[k] += relaxation * delta;
      max_delta = std::max(max_delta, std::fabs(delta));
      finite = finite && std::isfinite(delta);
    });
    sol.sweeps = sweep + 1;
    if (!finite) break;
    if (max_delta < opt.tolerance) {
      sol.converged = true;
      break;
    }
  }
  return sol;
}

}  // namespace sgm::cfd
