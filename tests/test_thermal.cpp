// Tests for the chip-thermal workload: the Dirichlet-Poisson FDM solver
// (against the manufactured solution) and ChipThermalProblem's residual,
// floorplan source and validation plumbing.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cfd/analytic.hpp"
#include "cfd/poisson_fdm.hpp"
#include "nn/mlp.hpp"
#include "pinn/thermal.hpp"
#include "util/rng.hpp"

namespace {

using sgm::tensor::Matrix;

TEST(PoissonFdm, MatchesManufacturedSolution) {
  auto sol = sgm::cfd::solve_poisson_dirichlet(
      [](double x, double y) {
        return sgm::cfd::poisson_manufactured_rhs(x, y);
      },
      {65, 20000, 1e-10, 1.9});
  ASSERT_TRUE(sol.converged);
  double worst = 0;
  for (double x : {0.25, 0.5, 0.75})
    for (double y : {0.3, 0.6, 0.9}) {
      const double err = std::fabs(
          sol.sample(x, y) - sgm::cfd::poisson_manufactured_solution(x, y));
      worst = std::max(worst, err);
    }
  EXPECT_LT(worst, 2e-3);  // second-order FDM on a 65^2 grid
}

TEST(PoissonFdm, ZeroSourceGivesZero) {
  auto sol = sgm::cfd::solve_poisson_dirichlet(
      [](double, double) { return 0.0; }, {33, 5000, 1e-12, 1.8});
  EXPECT_TRUE(sol.converged);
  EXPECT_LT(sol.t.max_abs(), 1e-10);
}

TEST(PoissonFdm, PositiveSourceHeatsInterior) {
  auto sol = sgm::cfd::solve_poisson_dirichlet(
      [](double, double) { return 1.0; }, {33, 20000, 1e-11, 1.8});
  ASSERT_TRUE(sol.converged);
  // Max of -lap T = 1 on the unit square is ~0.0737 at the center.
  EXPECT_NEAR(sol.sample(0.5, 0.5), 0.0737, 0.002);
  EXPECT_GT(sol.sample(0.5, 0.5), sol.sample(0.1, 0.1));
}

TEST(PoissonFdm, RejectsTinyGrid) {
  EXPECT_THROW(sgm::cfd::solve_poisson_dirichlet(
                   [](double, double) { return 0.0; }, {4, 10, 1e-3, 1.5}),
               std::invalid_argument);
}

TEST(PoissonFdm, RejectsBadToleranceAndBudget) {
  const auto zero = [](double, double) { return 0.0; };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double tol : {nan, std::numeric_limits<double>::infinity(), 0.0,
                           -1e-9})
    EXPECT_THROW(sgm::cfd::solve_poisson_dirichlet(zero, {17, 10, tol, 1.5}),
                 std::invalid_argument)
        << "tolerance " << tol;
  EXPECT_THROW(sgm::cfd::solve_poisson_dirichlet(zero, {17, 0, 1e-9, 1.5}),
               std::invalid_argument);
}

TEST(PoissonFdm, NanSourceIsNotConverged) {
  // Every update is NaN; std::max would report a zero change and stop.
  auto sol = sgm::cfd::solve_poisson_dirichlet(
      [](double, double) { return std::numeric_limits<double>::quiet_NaN(); },
      {17, 100, 1e-9, 1.5});
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.sweeps, 1);
}

TEST(ChipThermal, PowerDensityRespectsFloorplan) {
  sgm::pinn::ChipThermalProblem::Options opt;
  opt.interior_points = 256;
  opt.boundary_points = 64;
  opt.reference_grid = 33;
  sgm::pinn::ChipThermalProblem problem(opt);
  const auto& blocks = problem.options().blocks;
  ASSERT_EQ(blocks.size(), 3u);
  // Center of the hottest core carries (approximately) its density.
  const auto& core1 = blocks[1];
  const double cx = 0.5 * (core1.xmin + core1.xmax);
  const double cy = 0.5 * (core1.ymin + core1.ymax);
  EXPECT_NEAR(problem.power_density(cx, cy), core1.density,
              0.02 * core1.density);
  // Far corner: essentially zero.
  EXPECT_LT(problem.power_density(0.02, 0.98), 0.5);
}

TEST(ChipThermal, ReferencePeakPositive) {
  sgm::pinn::ChipThermalProblem::Options opt;
  opt.interior_points = 128;
  opt.boundary_points = 64;
  opt.reference_grid = 65;
  sgm::pinn::ChipThermalProblem problem(opt);
  EXPECT_GT(problem.reference_peak(), 0.1);
}

TEST(ChipThermal, ResidualMatchesFiniteDifference) {
  sgm::pinn::ChipThermalProblem::Options opt;
  opt.interior_points = 64;
  opt.boundary_points = 32;
  opt.reference_grid = 33;
  sgm::pinn::ChipThermalProblem problem(opt);

  sgm::util::Rng rng(3);
  sgm::nn::MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 1;
  cfg.width = 8;
  cfg.depth = 2;
  sgm::nn::Mlp net(cfg, rng);

  auto res = problem.pointwise_residual(net, {0, 1, 2});
  for (std::uint32_t i = 0; i < 3; ++i) {
    const double x = problem.interior_points()(i, 0);
    const double y = problem.interior_points()(i, 1);
    const double h = 1e-4;
    auto t = [&](double a, double b) {
      Matrix q(1, 2);
      q(0, 0) = a;
      q(0, 1) = b;
      return net.forward(q)(0, 0);
    };
    const double lap =
        (t(x + h, y) + t(x - h, y) + t(x, y + h) + t(x, y - h) -
         4 * t(x, y)) /
        (h * h);
    const double expect = lap + problem.power_density(x, y);
    EXPECT_NEAR(std::sqrt(res[i]), std::fabs(expect), 5e-3);
  }
}

TEST(ChipThermal, BatchLossAndValidationRun) {
  sgm::pinn::ChipThermalProblem::Options opt;
  opt.interior_points = 128;
  opt.boundary_points = 64;
  opt.reference_grid = 33;
  sgm::pinn::ChipThermalProblem problem(opt);
  sgm::util::Rng rng(4);
  sgm::nn::MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 1;
  cfg.width = 8;
  cfg.depth = 2;
  sgm::nn::Mlp net(cfg, rng);
  sgm::tensor::Tape tape;
  auto binding = net.bind(tape);
  auto loss = problem.batch_loss(tape, net, binding, {0, 1, 2, 3}, rng);
  tape.backward(loss);
  EXPECT_GT(tape.value(loss)(0, 0), 0.0);
  auto val = problem.validate(net);
  ASSERT_EQ(val.size(), 2u);
  EXPECT_EQ(val[0].name, "T");
  EXPECT_GT(val[0].error, 0.0);
}

TEST(ChipThermal, CustomFloorplanUsed) {
  sgm::pinn::ChipThermalProblem::Options opt;
  opt.blocks = {{0.4, 0.6, 0.4, 0.6, 10.0, 0.02}};
  opt.interior_points = 64;
  opt.boundary_points = 32;
  opt.reference_grid = 33;
  sgm::pinn::ChipThermalProblem problem(opt);
  EXPECT_EQ(problem.options().blocks.size(), 1u);
  EXPECT_NEAR(problem.power_density(0.5, 0.5), 10.0, 0.3);
  EXPECT_LT(problem.power_density(0.1, 0.1), 0.1);
}

}  // namespace
