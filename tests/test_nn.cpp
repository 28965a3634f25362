// Unit tests for sgm::nn — activation derivative ladders, encodings, the
// MLP's input-derivative propagation (checked against finite differences of
// the plain forward pass), and parameter gradients through second-order
// terms (the mechanism every PDE loss relies on).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/activation.hpp"
#include "nn/encoding.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using sgm::nn::Mlp;
using sgm::nn::MlpConfig;
using sgm::tensor::Matrix;
using sgm::tensor::Tape;
using sgm::tensor::VarId;
namespace ops = sgm::tensor;

// ------------------------------------------------------------ Activations --

class ActivationDerivatives
    : public ::testing::TestWithParam<const sgm::nn::Activation*> {};

TEST_P(ActivationDerivatives, FiniteDifferenceLadder) {
  const auto& act = *GetParam();
  const double h = 1e-5;
  for (double x : {-2.0, -0.5, 0.0, 0.3, 1.7}) {
    for (int order = 0; order < 3; ++order) {
      const double analytic = act.eval(x, order + 1);
      const double numeric =
          (act.eval(x + h, order) - act.eval(x - h, order)) / (2 * h);
      EXPECT_NEAR(analytic, numeric, 1e-6)
          << act.name() << " order " << order + 1 << " at x=" << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllActivations, ActivationDerivatives,
    ::testing::Values(&sgm::nn::silu(), &sgm::nn::tanh_act(),
                      &sgm::nn::sigmoid_act(), &sgm::nn::sine_act(),
                      &sgm::nn::identity_act()),
    [](const auto& info) { return info.param->name(); });

TEST(Activation, LookupByName) {
  EXPECT_EQ(sgm::nn::activation_by_name("silu").name(), "silu");
  EXPECT_EQ(sgm::nn::activation_by_name("tanh").name(), "tanh");
  EXPECT_THROW(sgm::nn::activation_by_name("relu6"), std::invalid_argument);
}

// The per-array sweep (eval_orders) must equal eval(x, k) bit for bit for
// every activation and order, on the IEEE corner cases and on lengths that
// straddle the sweep's stack chunk.
TEST_P(ActivationDerivatives, SweepMatchesEvalBitwise) {
  const auto& act = *GetParam();
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = std::numeric_limits<double>::denorm_min();
  std::vector<double> x = {0.0,    -0.0,  inf,     -inf,
                           std::numeric_limits<double>::quiet_NaN(),
                           sub,    -sub,  1e-310,  -1e-310,
                           710.0,  -710.0, 745.5,  -745.5, 1e300, -1e300};
  sgm::util::Rng rng(11);
  while (x.size() < 300) x.push_back(rng.normal(0.0, 4.0));
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t len : {0, 1, 63, 64, 65, 129, 300}) {
    for (int max_order = 0; max_order <= 3; ++max_order) {
      std::vector<std::vector<double>> out(
          4, std::vector<double>(len, 12345.0));
      double* ptrs[4] = {};
      for (int k = 0; k <= max_order; ++k) ptrs[k] = out[k].data();
      act.eval_orders(x.data(), len, max_order, ptrs);
      for (int k = 0; k <= max_order; ++k) {
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(bits(out[k][i]), bits(act.eval(x[i], k)))
              << act.name() << " order " << k << " of " << max_order
              << " at x=" << x[i] << " (length " << len << ")";
        }
      }
    }
  }
}

TEST(Activation, SiluKnownValues) {
  const auto& s = sgm::nn::silu();
  EXPECT_NEAR(s.eval(0.0, 0), 0.0, 1e-12);
  EXPECT_NEAR(s.eval(0.0, 1), 0.5, 1e-12);  // f'(0) = sigma(0) = 0.5
  EXPECT_NEAR(s.eval(10.0, 0), 10.0 / (1 + std::exp(-10.0)), 1e-9);
}

// -------------------------------------------------------------- Encodings --

TEST(Encoding, IdentityShapesAndJacobian) {
  sgm::nn::IdentityEncoding enc;
  Matrix x{{0.3, 0.8}, {0.1, 0.2}};
  Matrix e;
  std::vector<Matrix> de(2), d2e(2);
  Matrix* dp[] = {&de[0], &de[1]};
  Matrix* hp[] = {&d2e[0], &d2e[1]};
  enc.encode(x, e, dp, hp);
  EXPECT_EQ(e.rows(), 2u);
  EXPECT_EQ(e.cols(), 2u);
  EXPECT_DOUBLE_EQ(de[0](0, 0), 1.0);
  EXPECT_DOUBLE_EQ(de[0](0, 1), 0.0);
  EXPECT_DOUBLE_EQ(de[1](1, 1), 1.0);
  EXPECT_DOUBLE_EQ(d2e[0].max_abs(), 0.0);
}

TEST(Encoding, FourierDerivativesMatchFiniteDifference) {
  sgm::util::Rng rng(5);
  sgm::nn::FourierEncoding enc(2, 4, 1.5, rng);
  Matrix x{{0.4, -0.2}};
  Matrix e;
  std::vector<Matrix> de(2), d2e(2);
  Matrix* dp[] = {&de[0], &de[1]};
  Matrix* hp[] = {&d2e[0], &d2e[1]};
  enc.encode(x, e, dp, hp);

  const double h = 1e-5;
  for (int k = 0; k < 2; ++k) {
    Matrix xp = x, xm = x;
    xp(0, k) += h;
    xm(0, k) -= h;
    Matrix ep, em;
    enc.encode(xp, ep);
    enc.encode(xm, em);
    for (std::size_t c = 0; c < e.cols(); ++c) {
      const double d1 = (ep(0, c) - em(0, c)) / (2 * h);
      const double d2 = (ep(0, c) - 2 * e(0, c) + em(0, c)) / (h * h);
      EXPECT_NEAR(de[k](0, c), d1, 1e-6);
      EXPECT_NEAR(d2e[k](0, c), d2, 1e-4);
    }
  }
}

TEST(Encoding, FourierOutputDim) {
  sgm::util::Rng rng(6);
  sgm::nn::FourierEncoding enc(3, 8, 1.0, rng);
  EXPECT_EQ(enc.output_dim(3), 3u + 16u);
  EXPECT_THROW(enc.output_dim(2), std::invalid_argument);
}

// --------------------------------------------------------------------- MLP --

MlpConfig small_config(std::size_t in, std::size_t out,
                       const sgm::nn::Activation& act = sgm::nn::silu()) {
  MlpConfig cfg;
  cfg.input_dim = in;
  cfg.output_dim = out;
  cfg.width = 8;
  cfg.depth = 3;
  cfg.activation = &act;
  return cfg;
}

TEST(Mlp, ParameterCount) {
  sgm::util::Rng rng(1);
  Mlp net(small_config(2, 3), rng);
  // Layers: 2->8, 8->8, 8->8, 8->3 with biases.
  const std::size_t expect = (2 * 8 + 8) + 2 * (8 * 8 + 8) + (8 * 3 + 3);
  EXPECT_EQ(net.num_parameters(), expect);
}

TEST(Mlp, ForwardMatchesTapeForward) {
  sgm::util::Rng rng(2);
  Mlp net(small_config(2, 3), rng);
  Matrix x{{0.1, 0.9}, {-0.4, 0.3}, {0.7, 0.7}};
  const Matrix direct = net.forward(x);
  Tape tape;
  auto binding = net.bind(tape);
  auto out = net.forward_on_tape(tape, binding, x, 0);
  EXPECT_LT((direct - tape.value(out.y)).max_abs(), 1e-12);
}

TEST(Mlp, InputJacobianMatchesFiniteDifference) {
  sgm::util::Rng rng(3);
  Mlp net(small_config(2, 3), rng);
  Matrix x{{0.25, -0.5}};
  Tape tape;
  auto binding = net.bind(tape);
  auto out = net.forward_on_tape(tape, binding, x, 2);

  const double h = 1e-6;
  for (int k = 0; k < 2; ++k) {
    Matrix xp = x, xm = x;
    xp(0, k) += h;
    xm(0, k) -= h;
    const Matrix fp = net.forward(xp);
    const Matrix fm = net.forward(xm);
    for (std::size_t c = 0; c < 3; ++c) {
      const double numeric = (fp(0, c) - fm(0, c)) / (2 * h);
      EXPECT_NEAR(tape.value(out.dy[k])(0, c), numeric, 1e-6)
          << "dim " << k << " out " << c;
    }
  }
}

TEST(Mlp, InputHessianDiagonalMatchesFiniteDifference) {
  sgm::util::Rng rng(4);
  Mlp net(small_config(2, 2), rng);
  Matrix x{{0.3, 0.6}, {-0.2, 0.1}};
  Tape tape;
  auto binding = net.bind(tape);
  auto out = net.forward_on_tape(tape, binding, x, 2);

  const double h = 1e-4;
  for (std::size_t row = 0; row < 2; ++row) {
    for (int k = 0; k < 2; ++k) {
      Matrix xp = x, xm = x;
      xp(row, k) += h;
      xm(row, k) -= h;
      const Matrix fp = net.forward(xp);
      const Matrix f0 = net.forward(x);
      const Matrix fm = net.forward(xm);
      for (std::size_t c = 0; c < 2; ++c) {
        const double numeric =
            (fp(row, c) - 2 * f0(row, c) + fm(row, c)) / (h * h);
        EXPECT_NEAR(tape.value(out.d2y[k])(row, c), numeric, 5e-5)
            << "row " << row << " dim " << k << " out " << c;
      }
    }
  }
}

// Parameterized over the tape's worker-thread count: the analytic gradient
// must match finite differences bit-for-bit regardless of threading (the
// threaded kernels are write-disjoint with fixed per-element accumulation
// order), so the same FD tolerance must hold at 1 and 4 threads.
class MlpGradcheck : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MlpGradcheck, SecondOrderLossParamGradcheck) {
  // The crux: d/dtheta of a loss built from u_xx. Verified against central
  // differences on a few randomly chosen parameters.
  const std::size_t num_threads = GetParam();
  sgm::util::Rng rng(5);
  Mlp net(small_config(2, 1), rng);
  Matrix x{{0.2, 0.4}, {0.6, -0.3}, {-0.5, 0.9}};

  auto loss_value = [&](Mlp& m) {
    Tape t;
    t.set_num_threads(num_threads);
    auto b = m.bind(t);
    auto out = m.forward_on_tape(t, b, x, 2);
    VarId lap = ops::add(t, out.d2y[0], out.d2y[1]);
    VarId mixed = ops::add(t, lap, ops::mul(t, out.y, out.dy[0]));
    return t.value(ops::mean_all(t, ops::square(t, mixed)))(0, 0);
  };

  Tape tape;
  tape.set_num_threads(num_threads);
  auto binding = net.bind(tape);
  auto out = net.forward_on_tape(tape, binding, x, 2);
  VarId lap = ops::add(tape, out.d2y[0], out.d2y[1]);
  VarId mixed = ops::add(tape, lap, ops::mul(tape, out.y, out.dy[0]));
  VarId loss = ops::mean_all(tape, ops::square(tape, mixed));
  tape.backward(loss);
  auto grads = net.collect_grads(tape, binding);

  auto params = net.parameters();
  ASSERT_EQ(params.size(), grads.size());
  const double h = 1e-5;
  sgm::util::Rng pick(99);
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    // Probe two random entries per parameter tensor.
    for (int probe = 0; probe < 2; ++probe) {
      const std::size_t idx = pick.uniform_index(params[pi]->size());
      const double orig = params[pi]->data()[idx];
      params[pi]->data()[idx] = orig + h;
      const double fp = loss_value(net);
      params[pi]->data()[idx] = orig - h;
      const double fm = loss_value(net);
      params[pi]->data()[idx] = orig;
      const double numeric = (fp - fm) / (2 * h);
      EXPECT_NEAR(grads[pi].data()[idx], numeric, 5e-5)
          << "param " << pi << " entry " << idx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, MlpGradcheck, ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "threads_" + std::to_string(info.param);
                         });

TEST(Mlp, FourierEncodedDerivativesStillCorrect) {
  sgm::util::Rng rng(6);
  MlpConfig cfg = small_config(2, 1);
  cfg.encoding = std::make_shared<sgm::nn::FourierEncoding>(2, 4, 1.0, rng);
  Mlp net(cfg, rng);
  Matrix x{{0.3, 0.5}};
  Tape tape;
  auto binding = net.bind(tape);
  auto out = net.forward_on_tape(tape, binding, x, 2);
  const double h = 1e-4;
  for (int k = 0; k < 2; ++k) {
    Matrix xp = x, xm = x;
    xp(0, k) += h;
    xm(0, k) -= h;
    const double numeric1 =
        (net.forward(xp)(0, 0) - net.forward(xm)(0, 0)) / (2 * h);
    const double numeric2 = (net.forward(xp)(0, 0) -
                             2 * net.forward(x)(0, 0) +
                             net.forward(xm)(0, 0)) /
                            (h * h);
    EXPECT_NEAR(tape.value(out.dy[k])(0, 0), numeric1, 1e-5);
    EXPECT_NEAR(tape.value(out.d2y[k])(0, 0), numeric2, 1e-3);
  }
}

TEST(Mlp, SetParametersRoundTrip) {
  sgm::util::Rng rng(7);
  Mlp a(small_config(2, 1), rng);
  Mlp b(small_config(2, 1), rng);  // different init
  std::vector<Matrix> snapshot;
  for (const auto* p : a.parameters()) snapshot.push_back(*p);
  b.set_parameters(snapshot);
  Matrix x{{0.1, 0.2}};
  EXPECT_LT((a.forward(x) - b.forward(x)).max_abs(), 1e-14);
}

TEST(Mlp, PartialDerivDimsOnly) {
  // n_deriv = 2 of a 3-input network: derivatives w.r.t. dims 0 and 1 only
  // (the parameterized-problem configuration).
  sgm::util::Rng rng(8);
  Mlp net(small_config(3, 2), rng);
  Matrix x{{0.1, 0.5, 0.9}};
  Tape tape;
  auto binding = net.bind(tape);
  auto out = net.forward_on_tape(tape, binding, x, 2);
  EXPECT_EQ(out.dy.size(), 2u);
  const double h = 1e-6;
  Matrix xp = x, xm = x;
  xp(0, 1) += h;
  xm(0, 1) -= h;
  const double numeric =
      (net.forward(xp)(0, 0) - net.forward(xm)(0, 0)) / (2 * h);
  EXPECT_NEAR(tape.value(out.dy[1])(0, 0), numeric, 1e-6);
}

// -------------------------------------------------------------- Optimizers --

TEST(Optimizer, SgdQuadraticConverges) {
  // Minimize f(w) = 0.5 ||w - target||^2 by explicit gradients.
  Matrix w(1, 4, 0.0);
  Matrix target{{1, -2, 3, 0.5}};
  sgm::nn::Sgd opt(0.2, 0.5);
  for (int it = 0; it < 200; ++it) {
    Matrix g = w - target;
    opt.step({&w}, {g});
  }
  EXPECT_LT((w - target).max_abs(), 1e-6);
  EXPECT_EQ(opt.iterations(), 200u);
}

TEST(Optimizer, AdamQuadraticConverges) {
  Matrix w(1, 4, 0.0);
  Matrix target{{1, -2, 3, 0.5}};
  sgm::nn::Adam opt(0.1);
  for (int it = 0; it < 800; ++it) {
    Matrix g = w - target;
    opt.step({&w}, {g});
  }
  EXPECT_LT((w - target).max_abs(), 1e-3);
}

TEST(Optimizer, AdamRejectsShapeMismatch) {
  Matrix w(1, 4);
  sgm::nn::Adam opt(0.1);
  EXPECT_THROW(opt.step({&w}, {Matrix(2, 2)}), std::invalid_argument);
}

TEST(Optimizer, ExponentialDecaySchedule) {
  sgm::nn::ExponentialDecaySchedule sched(1e-3, 0.5, 100);
  EXPECT_DOUBLE_EQ(sched.lr(0), 1e-3);
  EXPECT_NEAR(sched.lr(100), 5e-4, 1e-12);
  EXPECT_NEAR(sched.lr(200), 2.5e-4, 1e-12);
}

}  // namespace
