// Tests for the PINN problem layer: geometry sampling, loss assembly, the
// zero-equation closure, and — critically — that each problem's residual
// operator is consistent with finite differences of the network and that
// exact reference solutions produce (near-)zero residuals. Also pins the
// blocked evaluation that scores representatives: bit-identical to one row
// at a time and to one whole-batch tape.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>

#include "cfd/analytic.hpp"
#include "nn/mlp.hpp"
#include "pinn/annular.hpp"
#include "pinn/geometry.hpp"
#include "pinn/loss.hpp"
#include "pinn/navier_stokes.hpp"
#include "pinn/pde.hpp"
#include "pinn/point_cloud.hpp"
#include "pinn/scenario.hpp"
#include "pinn/validation.hpp"
#include "pinn/zero_eq.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using sgm::nn::Mlp;
using sgm::nn::MlpConfig;
using sgm::tensor::Matrix;
using sgm::tensor::Tape;
using sgm::tensor::VarId;

// ---------------------------------------------------------------- geometry --

TEST(Geometry, RectangleSdfSigns) {
  sgm::pinn::Rectangle r(0, 1, 0, 2);
  EXPECT_LT(r.sdf(0.5, 1.0), 0.0);
  EXPECT_GT(r.sdf(1.5, 1.0), 0.0);
  EXPECT_NEAR(r.sdf(0.5, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(r.sdf(2.0, 1.0), 1.0, 1e-12);  // distance outside
}

TEST(Geometry, InteriorSamplesInside) {
  sgm::util::Rng rng(1);
  sgm::pinn::Rectangle r(0, 1, 0, 1);
  sgm::pinn::Circle hole(0.5, 0.5, 0.2);
  sgm::pinn::Difference dom(r, hole);
  const Matrix pts = dom.sample_interior(500, rng);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    EXPECT_LT(dom.sdf(pts(i, 0), pts(i, 1)), 0.0);
    EXPECT_GT(hole.sdf(pts(i, 0), pts(i, 1)), 0.0);  // outside the hole
  }
}

TEST(Geometry, SideSamplesOnBoundary) {
  sgm::util::Rng rng(2);
  sgm::pinn::Rectangle r(0, 2, 1, 3);
  const Matrix top = r.sample_side(sgm::pinn::Rectangle::Side::kTop, 50, rng);
  for (std::size_t i = 0; i < top.rows(); ++i) {
    EXPECT_DOUBLE_EQ(top(i, 1), 3.0);
    EXPECT_GE(top(i, 0), 0.0);
    EXPECT_LE(top(i, 0), 2.0);
  }
}

TEST(Geometry, CircleBoundaryOnCircle) {
  sgm::util::Rng rng(3);
  sgm::pinn::Circle c(1.0, -1.0, 0.5);
  const Matrix pts = c.sample_boundary(64, rng);
  for (std::size_t i = 0; i < pts.rows(); ++i)
    EXPECT_NEAR(c.sdf(pts(i, 0), pts(i, 1)), 0.0, 1e-12);
}

TEST(Geometry, WallDistance) {
  EXPECT_DOUBLE_EQ(sgm::pinn::unit_square_wall_distance(0.5, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(sgm::pinn::unit_square_wall_distance(0.1, 0.5), 0.1);
  EXPECT_NEAR(sgm::pinn::unit_square_wall_distance(0.5, 0.95), 0.05, 1e-12);
}

// -------------------------------------------------------------- point cloud --

TEST(PointCloud, GatherRows) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const Matrix g = sgm::pinn::gather_rows(m, {2, 0});
  EXPECT_DOUBLE_EQ(g(0, 0), 5);
  EXPECT_DOUBLE_EQ(g(1, 1), 2);
  EXPECT_THROW(sgm::pinn::gather_rows(m, {9}), std::out_of_range);
}

TEST(PointCloud, GridAndLinspace) {
  const auto xs = sgm::pinn::linspace(0, 1, 5);
  EXPECT_DOUBLE_EQ(xs[0], 0.0);
  EXPECT_DOUBLE_EQ(xs[4], 1.0);
  EXPECT_DOUBLE_EQ(xs[2], 0.5);
  const Matrix grid = sgm::pinn::make_grid(0, 1, 3, 0, 2, 4);
  EXPECT_EQ(grid.rows(), 12u);
  EXPECT_DOUBLE_EQ(grid(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(grid(11, 1), 2.0);
}

// -------------------------------------------------------------------- loss --

TEST(Loss, MseAndWeightedMse) {
  Tape t;
  VarId r = t.constant(Matrix{{1}, {2}, {3}});
  EXPECT_NEAR(t.value(sgm::pinn::mse(t, r))(0, 0), (1 + 4 + 9) / 3.0, 1e-12);
  Matrix w{{1}, {0}, {2}};
  EXPECT_NEAR(t.value(sgm::pinn::weighted_mse(t, r, w))(0, 0),
              (1.0 * 1 + 0 + 2.0 * 9) / 3.0, 1e-12);
}

TEST(Loss, CombineWeightsTerms) {
  Tape t;
  VarId a = t.constant(Matrix(1, 1, 2.0));
  VarId b = t.constant(Matrix(1, 1, 3.0));
  VarId total = sgm::pinn::combine(t, {{"a", a, 1.0}, {"b", b, 10.0}});
  EXPECT_DOUBLE_EQ(t.value(total)(0, 0), 32.0);
  EXPECT_THROW(sgm::pinn::combine(t, {}), std::invalid_argument);
}

TEST(Loss, SqrtEpsDerivativeLadder) {
  const auto& f = sgm::pinn::sqrt_eps();
  const double h = 1e-7;
  for (double x : {0.1, 1.0, 4.0}) {
    for (int order = 0; order < 2; ++order) {
      const double numeric =
          (f.eval(x + h, order) - f.eval(x - h, order)) / (2 * h);
      EXPECT_NEAR(f.eval(x, order + 1), numeric, 1e-5);
    }
  }
  EXPECT_GT(f.eval(0.0, 1), 0.0);  // finite at zero
}

// ----------------------------------------------------------------- zero-eq --

TEST(ZeroEq, MixingLengthCapped) {
  sgm::pinn::ZeroEqOptions opt;
  EXPECT_NEAR(sgm::pinn::mixing_length(0.01, opt), 0.419 * 0.01, 1e-12);
  EXPECT_NEAR(sgm::pinn::mixing_length(0.5, opt), 0.09 * 0.5, 1e-12);
}

TEST(ZeroEq, NutMatchesHandComputedStrain) {
  sgm::util::Rng rng(4);
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 3;
  cfg.width = 8;
  cfg.depth = 2;
  Mlp net(cfg, rng);
  Matrix x{{0.3, 0.4}, {0.6, 0.2}};
  Tape t;
  auto binding = net.bind(t);
  auto out = net.forward_on_tape(t, binding, x, 2);
  Matrix wall_d{{0.1}, {0.3}};
  sgm::pinn::ZeroEqOptions opt;
  VarId nut = sgm::pinn::zero_eq_nu_t(t, out, 0, 1, wall_d, opt);
  const Matrix& jx = t.value(out.dy[0]);
  const Matrix& jy = t.value(out.dy[1]);
  for (std::size_t i = 0; i < 2; ++i) {
    const double ux = jx(i, 0), vx = jx(i, 1);
    const double uy = jy(i, 0), vy = jy(i, 1);
    const double g = 2 * (ux * ux + vy * vy) + (uy + vx) * (uy + vx);
    const double lm = sgm::pinn::mixing_length(wall_d(i, 0), opt);
    EXPECT_NEAR(t.value(nut)(i, 0), lm * lm * std::sqrt(g), 1e-6);
  }
}

// ---------------------------------------------------------- Poisson problem --

TEST(PoissonProblem, ShapesAndDeterminism) {
  sgm::pinn::PoissonProblem::Options opt;
  opt.interior_points = 256;
  opt.boundary_points = 64;
  sgm::pinn::PoissonProblem p1(opt), p2(opt);
  EXPECT_EQ(p1.interior_points().rows(), 256u);
  EXPECT_LT(
      (p1.interior_points() - Matrix(p2.interior_points())).max_abs(), 1e-15);
}

TEST(PoissonProblem, PointwiseResidualMatchesFiniteDifference) {
  sgm::util::Rng rng(5);
  sgm::pinn::PoissonProblem::Options popt;
  popt.interior_points = 64;
  sgm::pinn::PoissonProblem prob(popt);
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 1;
  cfg.width = 8;
  cfg.depth = 2;
  Mlp net(cfg, rng);
  auto res = prob.pointwise_residual(net, {0, 1, 2, 3});
  EXPECT_EQ(res.size(), 4u);
  for (double r : res) EXPECT_GE(r, 0.0);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const double x = prob.interior_points()(i, 0);
    const double y = prob.interior_points()(i, 1);
    const double h = 1e-4;
    auto u = [&](double a, double b) {
      Matrix q(1, 2);
      q(0, 0) = a;
      q(0, 1) = b;
      return net.forward(q)(0, 0);
    };
    const double lap = (u(x + h, y) + u(x - h, y) + u(x, y + h) +
                        u(x, y - h) - 4 * u(x, y)) /
                       (h * h);
    const double expect = lap + sgm::cfd::poisson_manufactured_rhs(x, y);
    EXPECT_NEAR(std::sqrt(res[i]), std::fabs(expect), 5e-3);
  }
}

TEST(PoissonProblem, BatchLossBackpropagates) {
  sgm::util::Rng rng(6);
  sgm::pinn::PoissonProblem::Options popt;
  popt.interior_points = 64;
  sgm::pinn::PoissonProblem prob(popt);
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 1;
  cfg.width = 8;
  cfg.depth = 2;
  Mlp net(cfg, rng);
  Tape tape;
  auto binding = net.bind(tape);
  VarId loss = prob.batch_loss(tape, net, binding, {0, 1, 2, 3, 4}, rng);
  EXPECT_GT(tape.value(loss)(0, 0), 0.0);
  tape.backward(loss);
  auto grads = net.collect_grads(tape, binding);
  double gnorm = 0;
  for (const auto& g : grads) gnorm += g.frobenius_norm();
  EXPECT_GT(gnorm, 0.0);
}

// --------------------------------------------------------------- LDC problem --

TEST(LdcProblem, ConstructsAndScores) {
  sgm::util::Rng rng(7);
  sgm::pinn::LdcProblem::Options opt;
  opt.interior_points = 128;
  opt.boundary_points = 64;
  sgm::pinn::LdcProblem prob(opt, nullptr);
  EXPECT_EQ(prob.input_dim(), 2u);
  EXPECT_EQ(prob.output_dim(), 3u);
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 3;
  cfg.width = 8;
  cfg.depth = 2;
  Mlp net(cfg, rng);
  auto res = prob.pointwise_residual(net, {0, 5, 10});
  EXPECT_EQ(res.size(), 3u);
  Tape tape;
  auto binding = net.bind(tape);
  VarId loss = prob.batch_loss(tape, net, binding, {0, 1, 2}, rng);
  tape.backward(loss);
  EXPECT_GT(tape.value(loss)(0, 0), 0.0);
  // Without a reference solution, validation is empty.
  EXPECT_TRUE(prob.validate(net).empty());
}

TEST(LdcProblem, NavierStokesResidualConsistency) {
  // For a random network state, the momentum-x residual recomputed from
  // finite differences of the network must match the tape value.
  sgm::util::Rng rng(8);
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 3;
  cfg.width = 8;
  cfg.depth = 2;
  Mlp net(cfg, rng);
  Matrix pt(1, 2);
  pt(0, 0) = 0.4;
  pt(0, 1) = 0.6;
  Tape tape;
  auto binding = net.bind(tape);
  auto out = net.forward_on_tape(tape, binding, pt, 2);
  auto res = sgm::pinn::navier_stokes_residuals(tape, out, 0.01,
                                                sgm::tensor::kNoVar);
  auto f = [&](double x, double y, int c) {
    Matrix q(1, 2);
    q(0, 0) = x;
    q(0, 1) = y;
    return net.forward(q)(0, c);
  };
  const double x = 0.4, y = 0.6, h = 1e-4;
  const double u = f(x, y, 0), v = f(x, y, 1);
  const double ux = (f(x + h, y, 0) - f(x - h, y, 0)) / (2 * h);
  const double uy = (f(x, y + h, 0) - f(x, y - h, 0)) / (2 * h);
  const double px = (f(x + h, y, 2) - f(x - h, y, 2)) / (2 * h);
  const double uxx = (f(x + h, y, 0) - 2 * u + f(x - h, y, 0)) / (h * h);
  const double uyy = (f(x, y + h, 0) - 2 * u + f(x, y - h, 0)) / (h * h);
  const double expect = u * ux + v * uy + px - 0.01 * (uxx + uyy);
  EXPECT_NEAR(tape.value(res.momentum_x)(0, 0), expect, 1e-3);
}

// ------------------------------------------------------------- annular ring --

TEST(AnnularProblem, CloudRespectsParameterizedGeometry) {
  sgm::pinn::AnnularProblem::Options opt;
  opt.interior_points = 512;
  opt.boundary_points = 128;
  sgm::pinn::AnnularProblem prob(opt);
  const Matrix& pts = prob.interior_points();
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    const double z = pts(i, 0), r = pts(i, 1), ri = pts(i, 2);
    EXPECT_GE(z, 0.0);
    EXPECT_LE(z, opt.length);
    EXPECT_GE(ri, opt.r_inner_min);
    EXPECT_LE(ri, opt.r_inner_max);
    EXPECT_GE(r, ri);
    EXPECT_LE(r, opt.r_outer);
  }
}

TEST(AnnularProblem, ResidualAndLossRun) {
  sgm::util::Rng rng(9);
  sgm::pinn::AnnularProblem::Options opt;
  opt.interior_points = 128;
  opt.boundary_points = 64;
  sgm::pinn::AnnularProblem prob(opt);
  MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.output_dim = 3;
  cfg.width = 8;
  cfg.depth = 2;
  Mlp net(cfg, rng);
  auto res = prob.pointwise_residual(net, {0, 1, 2, 3});
  EXPECT_EQ(res.size(), 4u);
  Tape tape;
  auto binding = net.bind(tape);
  VarId loss = prob.batch_loss(tape, net, binding, {0, 1, 2, 3}, rng);
  tape.backward(loss);
  EXPECT_GT(tape.value(loss)(0, 0), 0.0);
}

TEST(AnnularProblem, ValidationAgainstExactSolution) {
  sgm::pinn::AnnularProblem::Options opt;
  opt.interior_points = 64;
  sgm::pinn::AnnularProblem prob(opt);
  auto ref = prob.reference(1.0);
  EXPECT_NEAR(ref.axial_velocity(1.0), 0.0, 1e-12);
  sgm::util::Rng rng(10);
  MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.output_dim = 3;
  cfg.width = 8;
  cfg.depth = 2;
  Mlp net(cfg, rng);
  auto errs = prob.validate(net);
  ASSERT_EQ(errs.size(), 3u);
  EXPECT_GT(errs[0].error, 0.1);  // untrained: far from the solution
}

TEST(AnnularProblem, PressureErrorFieldShape) {
  sgm::pinn::AnnularProblem::Options opt;
  opt.interior_points = 64;
  sgm::pinn::AnnularProblem prob(opt);
  sgm::util::Rng rng(11);
  MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.output_dim = 3;
  cfg.width = 8;
  cfg.depth = 2;
  Mlp net(cfg, rng);
  const Matrix field = prob.pressure_error_field(net, 1.0, 8, 6);
  EXPECT_EQ(field.rows(), 48u);
  EXPECT_EQ(field.cols(), 3u);
  for (std::size_t i = 0; i < field.rows(); ++i) EXPECT_GE(field(i, 2), 0.0);
  EXPECT_NO_THROW(sgm::pinn::ascii_heatmap(field, 8, 6));
}

// -------------------------------------------------------- blocked scoring --

using sgm::pinn::ScenarioRegistry;
using sgm::pinn::ScenarioScale;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

class BlockedScoring
    : public testing::TestWithParam<std::tuple<std::string, ScenarioScale>> {};

TEST_P(BlockedScoring, ManyRowsMatchOneRowCallsBitForBit) {
  // 301 rows: two full blocks and a 45-row tail, which is not a multiple of
  // the GEMM kernels' 4-row tile. A one-row call runs every GEMM on edge
  // rows, a block mostly on tiles; each element must sum the same way.
  static_assert(2 * sgm::pinn::kEvalBlockRows + 45 == 301);
  const auto& [name, scale] = GetParam();
  const sgm::pinn::ScenarioConfig cfg =
      ScenarioRegistry::instance().make(name, scale);
  sgm::util::Rng rng(cfg.net_seed);
  const Mlp net(cfg.net, rng);
  const std::size_t n = cfg.problem->interior_points().rows();
  std::vector<std::uint32_t> rows(301);
  for (auto& r : rows) r = static_cast<std::uint32_t>(rng.uniform_index(n));
  rows[290] = rows[7];  // one row repeated, in another block

  const std::vector<double> scores =
      cfg.problem->pointwise_residual(net, rows);
  ASSERT_EQ(scores.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::vector<double> one =
        cfg.problem->pointwise_residual(net, {rows[i]});
    ASSERT_EQ(one.size(), 1u);
    ASSERT_EQ(bits(scores[i]), bits(one[0]))
        << name << " row " << i << " (point " << rows[i] << ")";
  }
  EXPECT_TRUE(cfg.problem->pointwise_residual(net, {}).empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, BlockedScoring,
    testing::Combine(testing::ValuesIn(ScenarioRegistry::instance().names()),
                     testing::Values(ScenarioScale::kSmoke,
                                     ScenarioScale::kFull)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == ScenarioScale::kFull ? "_full"
                                                              : "_smoke");
    });

TEST(EvaluateInBlocks, JacobianMatchesOneWholeGridTape) {
  // LdcProblem::validate's nu_t Jacobians: the registered kFull network
  // (Fourier features) on its 1,600-point grid, in blocks vs on one tape.
  const sgm::pinn::ScenarioConfig cfg =
      ScenarioRegistry::instance().make("ldc_zeroeq", ScenarioScale::kFull);
  sgm::util::Rng rng(cfg.net_seed);
  const Mlp net(cfg.net, rng);
  const Matrix grid = sgm::pinn::make_grid(0.03, 0.97, 40, 0.03, 0.97, 40);

  Tape whole;
  const Mlp::Binding binding = net.bind(whole);
  const auto out = net.forward_on_tape(whole, binding, grid, /*n_deriv=*/2);
  const Matrix& jx = whole.value(out.dy[0]);
  const Matrix& jy = whole.value(out.dy[1]);

  const std::vector<double> j = sgm::pinn::evaluate_in_blocks(
      net, grid, [&](Tape& t, auto& b, auto& x) {
        const auto o = net.forward_on_tape(t, b, x, /*n_deriv=*/2);
        return sgm::tensor::hcat(t, o.dy[0], o.dy[1]);
      });
  ASSERT_EQ(j.size(), 6 * grid.rows());
  for (std::size_t i = 0; i < grid.rows(); ++i)
    for (std::size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(bits(j[6 * i + c]), bits(jx(i, c))) << i << "," << c;
      ASSERT_EQ(bits(j[6 * i + 3 + c]), bits(jy(i, c))) << i << "," << c;
    }

  // A reduction across rows is not a per-row value.
  EXPECT_THROW(sgm::pinn::evaluate_in_blocks(
                   net, grid,
                   [&](Tape& t, auto& b, auto& x) {
                     const auto o = net.forward_on_tape(t, b, x, 0);
                     return sgm::tensor::mean_all(t, o.y);
                   }),
               std::runtime_error);
}

// -------------------------------------------------------------- validation --

TEST(Validation, RelativeL2) {
  EXPECT_NEAR(sgm::pinn::relative_l2({1, 1}, {2, 2}),
              std::sqrt(2.0) / std::sqrt(8.0), 1e-12);
  EXPECT_NEAR(sgm::pinn::relative_l2({3, 4}, {0, 0}), 5.0, 1e-12);
  EXPECT_THROW(sgm::pinn::relative_l2({1}, {1, 2}), std::invalid_argument);
}

TEST(Validation, FormatAndLookup) {
  std::vector<sgm::pinn::ValidationEntry> v = {{"u", 0.5}, {"v", 0.25}};
  EXPECT_EQ(sgm::pinn::format_validation(v), "u=0.5 v=0.25");
  EXPECT_DOUBLE_EQ(sgm::pinn::validation_error(v, "v"), 0.25);
  EXPECT_TRUE(std::isinf(sgm::pinn::validation_error(v, "zzz")));
}

}  // namespace
