// Tests for the validation-data substrate: the lid-driven-cavity FDM solver
// (against the published Ghia et al. 1982 benchmark profiles), the bitwise
// pins of both FDM solvers and the wavefront order their sweeps share, and
// the analytic annular-Poiseuille reference.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "cfd/analytic.hpp"
#include "cfd/ldc_solver.hpp"
#include "cfd/poisson_fdm.hpp"
#include "cfd/wavefront.hpp"
#include "pinn/thermal.hpp"

namespace {

using sgm::cfd::AnnularPoiseuille;
using sgm::cfd::LdcOptions;
using sgm::cfd::LdcSolution;
using sgm::tensor::Matrix;

/// One solve per (n, Re) with the default options, shared by every test.
const LdcSolution& solved_cavity(int n, double reynolds) {
  static std::map<std::pair<int, double>, LdcSolution> solved;
  auto it = solved.find({n, reynolds});
  if (it == solved.end()) {
    LdcOptions opt;
    opt.n = n;
    opt.reynolds = reynolds;
    it = solved
             .emplace(std::pair{n, reynolds},
                      sgm::cfd::solve_lid_driven_cavity(opt))
             .first;
  }
  return it->second;
}

/// FNV-1a over the bit patterns of the fields' doubles, in row-major order.
std::uint64_t digest(std::initializer_list<const Matrix*> fields) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Matrix* f : fields) {
    for (std::size_t e = 0; e < f->size(); ++e) {
      const auto bits = std::bit_cast<std::uint64_t>(f->data()[e]);
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

TEST(LdcSolver, Converges) {
  const auto& sol = solved_cavity(81, 100.0);
  EXPECT_TRUE(sol.converged);
  EXPECT_GT(sol.iterations, 10);
}

TEST(LdcSolver, BoundaryConditionsHold) {
  const auto& sol = solved_cavity(81, 100.0);
  const int n = sol.n;
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(sol.u(0, i), 0.0);          // bottom wall
    EXPECT_DOUBLE_EQ(sol.u(n - 1, i), 1.0);      // moving lid
    EXPECT_DOUBLE_EQ(sol.v(0, i), 0.0);
  }
  // Side walls: skip j = n-1 (the lid corners belong to the moving lid).
  for (int j = 0; j < n - 1; ++j) {
    EXPECT_DOUBLE_EQ(sol.u(j, 0), 0.0);          // left wall
    EXPECT_DOUBLE_EQ(sol.u(j, n - 1), 0.0);      // right wall
  }
}

TEST(LdcSolver, MatchesGhiaUCenterline) {
  const auto& sol = solved_cavity(81, 100.0);
  for (const auto& [y, u_ref] : sgm::cfd::ghia_re100_u_centerline()) {
    const double u = sol.sample_u(0.5, y);
    // First-order upwind on an 81^2 grid: expect agreement within ~0.035.
    EXPECT_NEAR(u, u_ref, 0.035) << "at y=" << y;
  }
}

TEST(LdcSolver, MatchesGhiaVCenterline) {
  const auto& sol = solved_cavity(81, 100.0);
  for (const auto& [x, v_ref] : sgm::cfd::ghia_re100_v_centerline()) {
    const double v = sol.sample_v(x, 0.5);
    EXPECT_NEAR(v, v_ref, 0.035) << "at x=" << x;
  }
}

TEST(LdcSolver, MassConservationInBulk) {
  // Continuity: du/dx + dv/dy ~ 0 away from walls (central differences).
  const auto& sol = solved_cavity(81, 100.0);
  const int n = sol.n;
  const double h = sol.h;
  double worst = 0.0;
  for (int j = n / 4; j < 3 * n / 4; ++j) {
    for (int i = n / 4; i < 3 * n / 4; ++i) {
      const double div = (sol.u(j, i + 1) - sol.u(j, i - 1)) / (2 * h) +
                         (sol.v(j + 1, i) - sol.v(j - 1, i)) / (2 * h);
      worst = std::max(worst, std::fabs(div));
    }
  }
  EXPECT_LT(worst, 0.15);  // discrete divergence of the derived velocities
}

TEST(LdcSolver, StreamfunctionMinimumLocation) {
  // The Re=100 primary vortex center sits near (0.6172, 0.7344) (Ghia).
  const auto& sol = solved_cavity(81, 100.0);
  double best = 1e9;
  double bx = 0, by = 0;
  for (int j = 1; j < sol.n - 1; ++j)
    for (int i = 1; i < sol.n - 1; ++i)
      if (sol.psi(j, i) < best) {
        best = sol.psi(j, i);
        bx = i * sol.h;
        by = j * sol.h;
      }
  EXPECT_NEAR(bx, 0.6172, 0.06);
  EXPECT_NEAR(by, 0.7344, 0.06);
  EXPECT_NEAR(best, -0.1034, 0.015);  // Ghia's psi_min at Re=100
}

TEST(LdcSolver, MatchesPinnedRegisteredReference) {
  // The ldc_zeroeq reference (Re = 10, n = 81) as the single-grid solve
  // (30 psi sweeps, omega under-relaxed by 0.6, 6,304 outer iterations)
  // computed it, at the Ghia stations. The nested solve must stay within
  // 1e-5 of it.
  const std::vector<std::pair<double, double>> u_at_x_half = {
      {0.0000, 0},
      {0.0547, -0.034233216254016298},
      {0.0625, -0.038578768538219933},
      {0.0703, -0.042742817426257643},
      {0.1016, -0.058633344627191074},
      {0.1719, -0.090467771353267862},
      {0.2813, -0.13548564054119588},
      {0.4531, -0.19609147765422077},
      {0.5000, -0.20536326033476271},
      {0.6172, -0.1888118661325964},
      {0.7344, -0.060905024502975406},
      {0.8516, 0.26209850541598689},
      {0.9531, 0.73452474441850635},
      {0.9609, 0.7771277201316531},
      {0.9688, 0.82114748532106008},
      {0.9766, 0.86501639662095808},
      {1.0000, 1},
  };
  const std::vector<std::pair<double, double>> v_at_y_half = {
      {0.0000, 0},
      {0.0625, 0.093204143657518418},
      {0.0703, 0.10237722418076417},
      {0.0781, 0.11120654011606888},
      {0.0938, 0.12722702213769657},
      {0.1563, 0.1697087329124935},
      {0.2266, 0.18025756967659118},
      {0.2344, 0.17929073646071472},
      {0.5000, 0.0063688495480831997},
      {0.8047, -0.18799763607495426},
      {0.8594, -0.17020745768692791},
      {0.9063, -0.13279970358200247},
      {0.9453, -0.086129309931817361},
      {0.9531, -0.075233457176847998},
      {0.9609, -0.063854017470798788},
      {0.9688, -0.051722734443721254},
      {1.0000, 0},
  };
  const LdcSolution& sol = solved_cavity(81, 10.0);
  ASSERT_TRUE(sol.converged);
  for (const auto& [y, u] : u_at_x_half)
    EXPECT_NEAR(sol.sample_u(0.5, y), u, 1e-5) << "at y=" << y;
  for (const auto& [x, v] : v_at_y_half)
    EXPECT_NEAR(sol.sample_v(x, 0.5), v, 1e-5) << "at x=" << x;
}

TEST(LdcSolver, FieldsAreBitIdenticalToPins) {
  // u, v, psi and omega bit for bit, and the finest grid's iteration count,
  // as the lexicographic sweeps computed them before the wavefront order
  // replaced them. The grids cover one group of fewer than kWavefrontRows interior rows
  // (n = 8), tail groups of 3 (n = 21) and 7 rows (n = 41, 81; the n = 81
  // solve nests 21 -> 41 -> 81) and whole groups only (n = 50).
  struct Pin {
    int n;
    double reynolds;
    int iterations;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {8, 10.0, 31, 4226035537874200806ull},
      {21, 10.0, 221, 5277470687459635863ull},
      {41, 10.0, 445, 13446468118615083245ull},
      {50, 10.0, 1129, 10746170627294768548ull},
      {81, 10.0, 1249, 10803757343583502664ull},
      {81, 100.0, 2091, 16373173395404434120ull},
  };
  for (const Pin& pin : pins) {
    const LdcSolution& sol = solved_cavity(pin.n, pin.reynolds);
    EXPECT_TRUE(sol.converged) << "n=" << pin.n << " Re=" << pin.reynolds;
    EXPECT_EQ(sol.iterations, pin.iterations)
        << "n=" << pin.n << " Re=" << pin.reynolds;
    EXPECT_EQ(digest({&sol.u, &sol.v, &sol.psi, &sol.omega}), pin.digest)
        << "n=" << pin.n << " Re=" << pin.reynolds;
  }
}

TEST(LdcSolver, RejectsBadOptions) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto rejects = [](auto mutate) {
    LdcOptions bad;
    bad.n = 21;
    mutate(bad);
    EXPECT_THROW(sgm::cfd::solve_lid_driven_cavity(bad),
                 std::invalid_argument);
  };
  rejects([](LdcOptions& o) { o.n = 4; });
  rejects([](LdcOptions& o) { o.reynolds = -1; });
  rejects([](LdcOptions& o) { o.reynolds = 0; });
  rejects([&](LdcOptions& o) { o.reynolds = nan; });
  rejects([&](LdcOptions& o) { o.reynolds = inf; });
  rejects([&](LdcOptions& o) { o.lid_velocity = nan; });
  rejects([&](LdcOptions& o) { o.lid_velocity = -inf; });
  rejects([&](LdcOptions& o) { o.tolerance = nan; });
  rejects([&](LdcOptions& o) { o.tolerance = inf; });
  rejects([](LdcOptions& o) { o.tolerance = 0; });
  rejects([](LdcOptions& o) { o.tolerance = -1e-7; });
  rejects([](LdcOptions& o) { o.max_iterations = 0; });
}

TEST(LdcSolver, NonFiniteUpdateEndsTheSolveUnconverged) {
  // A finite but huge lid velocity overflows Thom's lid vorticity
  // 2 U / h: the first vorticity update is infinite, and later ones would
  // be NaN, which std::max reads as no change at all.
  LdcOptions opt;
  opt.n = 21;
  opt.lid_velocity = 1e308;
  const LdcSolution sol = sgm::cfd::solve_lid_driven_cavity(opt);
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.iterations, 1);
}

TEST(LdcSolver, IterationBudgetExhaustedIsNotConverged) {
  // n = 81 nests 21 -> 41 -> 81; each grid gets the budget, and
  // `iterations` counts the finest grid's.
  LdcOptions opt;
  opt.n = 81;
  opt.reynolds = 10.0;
  opt.max_iterations = 5;
  const LdcSolution sol = sgm::cfd::solve_lid_driven_cavity(opt);
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.iterations, 5);
  EXPECT_EQ(sol.n, 81);
}

TEST(LdcSolver, BilinearSamplingInterpolates) {
  const auto& sol = solved_cavity(81, 100.0);
  // At grid nodes sampling returns the stored value.
  EXPECT_NEAR(sol.sample_u(0.5, 1.0), 1.0, 1e-12);
  // Clamps out-of-range coordinates.
  EXPECT_NO_THROW(sol.sample_u(-0.5, 2.0));
}

// ------------------------------------------------- Poisson FDM (chip) ----

TEST(PoissonFdm, ChipThermalFieldIsBitIdenticalToPins) {
  // The chip_thermal reference's source and options (n = 129 is the
  // registered grid), T bit for bit and the sweep count, as the
  // lexicographic sweep computed them. The interior has
  // 6 rows at n = 8, and a tail group of 7 rows at n = 33, 65 and 129.
  sgm::pinn::ChipThermalProblem::Options options;
  options.interior_points = 16;
  options.boundary_points = 8;
  options.reference_grid = 8;
  const sgm::pinn::ChipThermalProblem chip(options);
  struct Pin {
    int n;
    int sweeps;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {8, 185, 2406489668799749817ull},
      {33, 190, 6018490749064754879ull},
      {65, 275, 8000418177588889421ull},
      {129, 1272, 9251323705869490301ull},
  };
  for (const Pin& pin : pins) {
    sgm::cfd::PoissonFdmOptions opt;
    opt.n = pin.n;
    const auto sol = sgm::cfd::solve_poisson_dirichlet(
        [&chip](double x, double y) { return chip.power_density(x, y); },
        opt);
    EXPECT_TRUE(sol.converged) << "n=" << pin.n;
    EXPECT_EQ(sol.sweeps, pin.sweeps) << "n=" << pin.n;
    EXPECT_EQ(digest({&sol.t}), pin.digest) << "n=" << pin.n;
  }
}

// ------------------------------------------------------- wavefront order ----

TEST(Wavefront, VisitsEachNodeOnceInGaussSeidelOrder) {
  // Each interior node exactly once, after its west and south neighbours
  // and before its east and north ones; boundary nodes never.
  for (int n = 8; n <= 40; ++n) {
    const std::ptrdiff_t cells = std::ptrdiff_t{n} * n;
    std::vector<int> when(static_cast<std::size_t>(cells), -1);
    int visits = 0, bad_visits = 0;
    sgm::cfd::wavefront_sweep(n, [&](std::ptrdiff_t k) {
      if (k < 0 || k >= cells || when[static_cast<std::size_t>(k)] != -1) {
        ++bad_visits;  // out of the grid, or a repeat
        return;
      }
      when[static_cast<std::size_t>(k)] = visits++;
    });
    EXPECT_EQ(bad_visits, 0) << "n=" << n;
    EXPECT_EQ(visits, (n - 2) * (n - 2)) << "n=" << n;
    int misordered = 0, boundary = 0;
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        const auto at = [&](int jj, int ii) {
          return when[static_cast<std::size_t>(jj * n + ii)];
        };
        if (j == 0 || i == 0 || j == n - 1 || i == n - 1) {
          boundary += at(j, i) != -1;
          continue;
        }
        const int t = at(j, i);
        if (t == -1) continue;  // counted by `visits`
        if (i > 1 && !(at(j, i - 1) < t)) ++misordered;      // west
        if (j > 1 && !(at(j - 1, i) < t)) ++misordered;      // south
        if (i < n - 2 && !(t < at(j, i + 1))) ++misordered;  // east
        if (j < n - 2 && !(t < at(j + 1, i))) ++misordered;  // north
      }
    }
    EXPECT_EQ(misordered, 0) << "n=" << n;
    EXPECT_EQ(boundary, 0) << "n=" << n;
  }
}

// ----------------------------------------------------- annular Poiseuille --

TEST(AnnularPoiseuille, NoSlipAtWalls) {
  AnnularPoiseuille ap;
  ap.r_inner = 1.0;
  ap.r_outer = 2.0;
  EXPECT_NEAR(ap.axial_velocity(1.0), 0.0, 1e-12);
  EXPECT_NEAR(ap.axial_velocity(2.0), 0.0, 1e-12);
  EXPECT_GT(ap.axial_velocity(1.5), 0.0);
}

TEST(AnnularPoiseuille, SatisfiesMomentumOde) {
  // nu * (u'' + u'/r) = dp/dz = -g, verified by central differences.
  AnnularPoiseuille ap;
  ap.r_inner = 0.8;
  ap.r_outer = 2.0;
  ap.pressure_gradient = 1.3;
  ap.nu = 0.1;
  const double h = 1e-5;
  for (double r : {0.9, 1.2, 1.5, 1.9}) {
    const double u0 = ap.axial_velocity(r);
    const double up = ap.axial_velocity(r + h);
    const double um = ap.axial_velocity(r - h);
    const double d1 = (up - um) / (2 * h);
    const double d2 = (up - 2 * u0 + um) / (h * h);
    EXPECT_NEAR(ap.nu * (d2 + d1 / r), -ap.pressure_gradient, 1e-4)
        << "at r=" << r;
  }
}

TEST(AnnularPoiseuille, MaxAtZeroShearRadius) {
  AnnularPoiseuille ap;
  ap.r_inner = 0.75;
  ap.r_outer = 2.0;
  const double rm = ap.zero_shear_radius();
  EXPECT_GT(rm, ap.r_inner);
  EXPECT_LT(rm, ap.r_outer);
  const double h = 1e-6;
  const double slope =
      (ap.axial_velocity(rm + h) - ap.axial_velocity(rm - h)) / (2 * h);
  EXPECT_NEAR(slope, 0.0, 1e-6);
  EXPECT_NEAR(ap.max_velocity(), ap.axial_velocity(rm), 1e-12);
}

TEST(AnnularPoiseuille, MeanVelocityMatchesQuadrature) {
  AnnularPoiseuille ap;
  ap.r_inner = 1.0;
  ap.r_outer = 2.0;
  // Numerical Q = int 2 pi r u dr via Simpson on a fine grid.
  const int n = 2000;
  const double h = (ap.r_outer - ap.r_inner) / n;
  double q = 0;
  for (int i = 0; i <= n; ++i) {
    const double r = ap.r_inner + i * h;
    const double w = (i == 0 || i == n) ? 1.0 : (i % 2 ? 4.0 : 2.0);
    q += w * 2 * M_PI * r * ap.axial_velocity(r);
  }
  q *= h / 3.0;
  const double area = M_PI * (ap.r_outer * ap.r_outer - ap.r_inner * ap.r_inner);
  EXPECT_NEAR(ap.mean_velocity(), q / area, 1e-6);
}

TEST(AnnularPoiseuille, PressureLinearInZ) {
  AnnularPoiseuille ap;
  ap.pressure_gradient = 2.0;
  EXPECT_DOUBLE_EQ(ap.pressure(0.0, 3.0), 6.0);
  EXPECT_DOUBLE_EQ(ap.pressure(3.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(ap.pressure(1.5, 3.0), 3.0);
}

TEST(AnnularPoiseuille, RejectsDegenerateGeometry) {
  AnnularPoiseuille ap;
  ap.r_inner = 2.0;
  ap.r_outer = 1.0;
  EXPECT_THROW(ap.axial_velocity(1.5), std::invalid_argument);
}

TEST(PlanePoiseuille, ParabolicProfile) {
  const double h = 2.0, g = 1.0, nu = 0.1;
  EXPECT_DOUBLE_EQ(sgm::cfd::plane_poiseuille_velocity(0.0, h, g, nu), 0.0);
  EXPECT_DOUBLE_EQ(sgm::cfd::plane_poiseuille_velocity(h, h, g, nu), 0.0);
  const double mid = sgm::cfd::plane_poiseuille_velocity(1.0, h, g, nu);
  EXPECT_NEAR(mid, g * 1.0 * 1.0 / (2 * nu), 1e-12);
}

TEST(PoissonManufactured, RhsMatchesNegativeLaplacian) {
  const double h = 1e-5;
  for (double x : {0.2, 0.5, 0.8}) {
    for (double y : {0.3, 0.7}) {
      const double lap =
          (sgm::cfd::poisson_manufactured_solution(x + h, y) +
           sgm::cfd::poisson_manufactured_solution(x - h, y) +
           sgm::cfd::poisson_manufactured_solution(x, y + h) +
           sgm::cfd::poisson_manufactured_solution(x, y - h) -
           4 * sgm::cfd::poisson_manufactured_solution(x, y)) /
          (h * h);
      EXPECT_NEAR(-lap, sgm::cfd::poisson_manufactured_rhs(x, y), 1e-4);
    }
  }
}

// ------------------------------------------------- Burgers (Cole-Hopf) ----

TEST(BurgersColeHopf, RecoversInitialConditionAtSmallTime) {
  const double nu = 0.02;
  for (double x = -0.9; x <= 0.9; x += 0.15) {
    EXPECT_NEAR(sgm::cfd::burgers_cole_hopf_solution(x, 1e-8, nu),
                -std::sin(M_PI * x), 1e-3)
        << "x=" << x;
    EXPECT_DOUBLE_EQ(sgm::cfd::burgers_cole_hopf_solution(x, 0.0, nu),
                     -std::sin(M_PI * x));
  }
}

TEST(BurgersColeHopf, OddSymmetryAndHomogeneousWalls) {
  const double nu = 0.05;
  for (double t : {0.1, 0.5, 1.0}) {
    EXPECT_NEAR(sgm::cfd::burgers_cole_hopf_solution(-1.0, t, nu), 0.0, 1e-9);
    EXPECT_NEAR(sgm::cfd::burgers_cole_hopf_solution(1.0, t, nu), 0.0, 1e-9);
    EXPECT_NEAR(sgm::cfd::burgers_cole_hopf_solution(0.0, t, nu), 0.0, 1e-9);
    for (double x : {0.2, 0.45, 0.8})
      EXPECT_NEAR(sgm::cfd::burgers_cole_hopf_solution(-x, t, nu),
                  -sgm::cfd::burgers_cole_hopf_solution(x, t, nu), 1e-8)
          << "x=" << x << " t=" << t;
  }
}

TEST(BurgersColeHopf, SatisfiesThePdeByFiniteDifferences) {
  // The strongest check: u_t + u u_x - nu u_xx = 0 at interior points,
  // with all three derivatives taken by central differences of the
  // closed-form evaluation itself.
  const double nu = 0.05;
  const double hx = 1e-4, ht = 1e-4;
  auto u = [&](double x, double t) {
    return sgm::cfd::burgers_cole_hopf_solution(x, t, nu);
  };
  for (double t : {0.3, 0.8}) {
    for (double x : {-0.6, -0.25, 0.35, 0.7}) {
      const double u0 = u(x, t);
      const double ut = (u(x, t + ht) - u(x, t - ht)) / (2 * ht);
      const double ux = (u(x + hx, t) - u(x - hx, t)) / (2 * hx);
      const double uxx = (u(x + hx, t) - 2 * u0 + u(x - hx, t)) / (hx * hx);
      const double residual = ut + u0 * ux - nu * uxx;
      // Scale tolerance by the local gradient (the FD error term).
      EXPECT_NEAR(residual, 0.0, 5e-3 * (1.0 + std::fabs(ux)))
          << "x=" << x << " t=" << t;
    }
  }
}

TEST(BurgersColeHopf, SteepensTowardAShockAtTheOrigin) {
  // By t = 1/pi the profile forms a near-discontinuity at x = 0 for small
  // nu: the gradient there must dwarf the initial -pi.
  const double nu = 0.01 / M_PI;
  const double h = 1e-3;
  const double grad0 =
      (sgm::cfd::burgers_cole_hopf_solution(h, 1.0 / M_PI, nu) -
       sgm::cfd::burgers_cole_hopf_solution(-h, 1.0 / M_PI, nu)) /
      (2 * h);
  EXPECT_LT(grad0, -30.0);  // ~ -152 in the exact solution
  EXPECT_THROW(sgm::cfd::burgers_cole_hopf_solution(0.0, 0.5, 0.0),
               std::invalid_argument);
}

// ------------------------------------------------ Helmholtz manufactured ----

TEST(HelmholtzManufactured, RhsMatchesLaplacianByFiniteDifferences) {
  const int a1 = 1, a2 = 4;
  const double k = 1.0;
  const double h = 1e-4;
  auto u = [&](double x, double y) {
    return sgm::cfd::helmholtz_manufactured_solution(x, y, a1, a2);
  };
  for (double x : {0.17, 0.5, 0.83}) {
    for (double y : {0.21, 0.44, 0.9}) {
      const double lap = (u(x + h, y) + u(x - h, y) + u(x, y + h) +
                          u(x, y - h) - 4 * u(x, y)) /
                         (h * h);
      const double rhs =
          sgm::cfd::helmholtz_manufactured_rhs(x, y, a1, a2, k);
      EXPECT_NEAR(lap + k * k * u(x, y), rhs, 1e-4) << x << "," << y;
    }
  }
}

TEST(HelmholtzManufactured, VanishesOnTheBoundary) {
  for (double s = 0.0; s <= 1.0; s += 0.1) {
    EXPECT_NEAR(sgm::cfd::helmholtz_manufactured_solution(0.0, s, 1, 4), 0.0,
                1e-12);
    EXPECT_NEAR(sgm::cfd::helmholtz_manufactured_solution(1.0, s, 1, 4), 0.0,
                1e-12);
    EXPECT_NEAR(sgm::cfd::helmholtz_manufactured_solution(s, 0.0, 1, 4), 0.0,
                1e-12);
    EXPECT_NEAR(sgm::cfd::helmholtz_manufactured_solution(s, 1.0, 1, 4), 0.0,
                1e-12);
  }
}

}  // namespace
