// Unit tests for sgm::tensor — matrix algebra and the autodiff tape.
// Every differentiable op is gradient-checked against central finite
// differences; these checks underwrite the correctness of all PDE losses.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "nn/activation.hpp"
#include "tensor/gemm_dispatch.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "tensor/tape.hpp"
#include "util/rng.hpp"

namespace {

using sgm::tensor::Matrix;
using sgm::tensor::Tape;
using sgm::tensor::VarId;
namespace ops = sgm::tensor;

Matrix random_matrix(std::size_t r, std::size_t c, sgm::util::Rng& rng,
                     double scale = 1.0) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = rng.normal(0.0, scale);
  return m;
}

// ---------------------------------------------------------------- Matrix --

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, InitializerListAndRagged) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, MatmulMatchesManual) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = sgm::tensor::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(sgm::tensor::matmul(a, b), std::invalid_argument);
}

TEST(Matrix, TransposedProductsAgree) {
  sgm::util::Rng rng(3);
  Matrix a = random_matrix(4, 3, rng);
  Matrix b = random_matrix(4, 5, rng);
  Matrix tn = sgm::tensor::matmul_tn(a, b);  // A^T B
  Matrix ref = sgm::tensor::matmul(sgm::tensor::transpose(a), b);
  EXPECT_LT((tn - ref).max_abs(), 1e-12);

  Matrix c = random_matrix(6, 3, rng);
  Matrix d = random_matrix(5, 3, rng);
  Matrix nt = sgm::tensor::matmul_nt(c, d);  // C D^T
  Matrix ref2 = sgm::tensor::matmul(c, sgm::tensor::transpose(d));
  EXPECT_LT((nt - ref2).max_abs(), 1e-12);
}

TEST(Matrix, NormsAndReductions) {
  Matrix m{{3, 4}};
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
  EXPECT_DOUBLE_EQ(m.sum(), 7.0);
}

TEST(Matrix, AxpyAndScale) {
  Matrix a{{1, 2}};
  Matrix b{{10, 20}};
  a.axpy(0.5, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 6.0);
  a.scale(2.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 24.0);
}

TEST(Matrix, HadamardAndIdentity) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix h = sgm::tensor::hadamard(a, a);
  EXPECT_DOUBLE_EQ(h(1, 1), 16.0);
  Matrix i = sgm::tensor::identity(3);
  EXPECT_DOUBLE_EQ(i(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
}

// ------------------------------------------------------------------ Tape --

TEST(Tape, BackwardRequiresScalarRoot) {
  Tape t;
  VarId a = t.parameter(Matrix(2, 2, 1.0));
  EXPECT_THROW(t.backward(a), std::invalid_argument);
}

TEST(Tape, ConstantGetsNoGrad) {
  Tape t;
  VarId c = t.constant(Matrix(1, 1, 3.0));
  VarId p = t.parameter(Matrix(1, 1, 2.0));
  VarId s = ops::mul(t, c, p);
  t.backward(s);
  EXPECT_TRUE(t.grad(c).empty());
  EXPECT_DOUBLE_EQ(t.grad(p)(0, 0), 3.0);
}

TEST(Tape, GradAccumulatesAcrossUses) {
  Tape t;
  VarId p = t.parameter(Matrix(1, 1, 3.0));
  VarId s = ops::add(t, p, p);  // d(2p)/dp = 2
  t.backward(s);
  EXPECT_DOUBLE_EQ(t.grad(p)(0, 0), 2.0);
}

TEST(Tape, ClearResets) {
  Tape t;
  t.parameter(Matrix(1, 1, 1.0));
  EXPECT_EQ(t.num_nodes(), 1u);
  t.clear();
  EXPECT_EQ(t.num_nodes(), 0u);
}

// ------------------------------------------------------- Gradient checks --

// Central-difference gradient check: `build` records ops on the tape and
// returns the scalar root; the check compares the analytic gradient of the
// parameter leaf against finite differences, one entry at a time.
void gradcheck_root(
    const std::function<VarId(Tape&, VarId)>& build, const Matrix& param0,
    double tol = 2e-6, double h = 1e-5) {
  Tape t;
  VarId p = t.parameter(param0);
  VarId root = build(t, p);
  t.backward(root);
  const Matrix analytic = t.grad(p);
  ASSERT_FALSE(analytic.empty());

  for (std::size_t i = 0; i < param0.size(); ++i) {
    Matrix plus = param0, minus = param0;
    plus.data()[i] += h;
    minus.data()[i] -= h;
    Tape tp;
    VarId pp = tp.parameter(plus);
    const double fp = tp.value(build(tp, pp))(0, 0);
    Tape tm;
    VarId pm = tm.parameter(minus);
    const double fm = tm.value(build(tm, pm))(0, 0);
    const double numeric = (fp - fm) / (2 * h);
    EXPECT_NEAR(analytic.data()[i], numeric, tol)
        << "entry " << i << " of " << param0.size();
  }
}

TEST(Gradcheck, AddSubScale) {
  sgm::util::Rng rng(1);
  const Matrix x0 = random_matrix(3, 2, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId c = t.constant(Matrix(3, 2, 0.7));
        VarId a = ops::add(t, p, c);
        VarId b = ops::sub(t, a, p);  // also exercises sub's -1 path
        VarId d = ops::scale(t, ops::add(t, a, b), 0.3);
        return ops::sum_all(t, d);
      },
      x0);
}

TEST(Gradcheck, MulSquare) {
  sgm::util::Rng rng(2);
  const Matrix x0 = random_matrix(2, 3, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId sq = ops::square(t, p);
        VarId m = ops::mul(t, sq, p);  // p^3 elementwise
        return ops::mean_all(t, m);
      },
      x0);
}

TEST(Gradcheck, MatmulBothSides) {
  sgm::util::Rng rng(3);
  const Matrix w0 = random_matrix(3, 4, rng);
  const Matrix x = random_matrix(5, 3, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId xc = t.constant(x);
        VarId y = ops::matmul(t, xc, p);
        return ops::mean_all(t, ops::square(t, y));
      },
      w0);
  // And gradients w.r.t. the left operand.
  const Matrix a0 = random_matrix(2, 3, rng);
  const Matrix b = random_matrix(3, 4, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId bc = t.constant(b);
        return ops::sum_all(t, ops::square(t, ops::matmul(t, p, bc)));
      },
      a0);
}

TEST(Gradcheck, AddRowvecBias) {
  sgm::util::Rng rng(4);
  const Matrix b0 = random_matrix(1, 4, rng);
  const Matrix x = random_matrix(6, 4, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId xc = t.constant(x);
        return ops::mean_all(t, ops::square(t, ops::add_rowvec(t, xc, p)));
      },
      b0);
}

TEST(Gradcheck, ApplyActivationOrders) {
  sgm::util::Rng rng(5);
  const Matrix x0 = random_matrix(4, 2, rng);
  for (int order = 0; order <= 2; ++order) {
    gradcheck_root(
        [order](Tape& t, VarId p) {
          return ops::mean_all(
              t, ops::apply(t, p, sgm::nn::silu(), order));
        },
        x0, 5e-6);
  }
}

TEST(Gradcheck, ColAndHcat) {
  sgm::util::Rng rng(6);
  const Matrix x0 = random_matrix(4, 3, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId c0 = ops::col(t, p, 0);
        VarId c2 = ops::col(t, p, 2);
        VarId cat = ops::hcat(t, c0, c2);
        return ops::sum_all(t, ops::square(t, cat));
      },
      x0);
}

TEST(Gradcheck, WeightedMeanAndAddScalar) {
  sgm::util::Rng rng(7);
  const Matrix x0 = random_matrix(5, 1, rng);
  Matrix w(5, 1);
  for (int i = 0; i < 5; ++i) w(i, 0) = 0.2 * (i + 1);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId shifted = ops::add_scalar(t, p, 0.3);
        return ops::weighted_mean(t, ops::square(t, shifted), w);
      },
      x0);
}

TEST(Gradcheck, DeepCompositeChain) {
  // A chain resembling one PINN residual: matmul -> act -> matmul -> square
  // -> mean, checked end to end.
  sgm::util::Rng rng(8);
  const Matrix w0 = random_matrix(3, 3, rng, 0.5);
  const Matrix x = random_matrix(4, 3, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId xc = t.constant(x);
        VarId h1 = ops::apply(t, ops::matmul(t, xc, p), sgm::nn::tanh_act(), 0);
        VarId h2 = ops::matmul(t, h1, p);
        VarId s1 = ops::apply(t, h2, sgm::nn::silu(), 1);
        return ops::mean_all(t, ops::square(t, s1));
      },
      w0, 5e-6);
}

TEST(Ops, ValueCorrectness) {
  Tape t;
  VarId a = t.constant(Matrix{{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(t.value(ops::mean_all(t, a))(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(t.value(ops::sum_all(t, a))(0, 0), 10.0);
  VarId c1 = ops::col(t, a, 1);
  EXPECT_DOUBLE_EQ(t.value(c1)(1, 0), 4.0);
  VarId sq = ops::square(t, a);
  EXPECT_DOUBLE_EQ(t.value(sq)(1, 1), 16.0);
  VarId sc = ops::add_scalar(t, a, 1.0);
  EXPECT_DOUBLE_EQ(t.value(sc)(0, 0), 2.0);
}

TEST(Ops, ShapeErrorsThrow) {
  Tape t;
  VarId a = t.constant(Matrix(2, 2));
  VarId b = t.constant(Matrix(2, 3));
  EXPECT_THROW(ops::add(t, a, b), std::invalid_argument);
  EXPECT_THROW(ops::mul(t, a, b), std::invalid_argument);
  EXPECT_THROW(ops::col(t, a, 5), std::out_of_range);
  VarId rv = t.constant(Matrix(1, 3));
  EXPECT_THROW(ops::add_rowvec(t, a, rv), std::invalid_argument);
}

// ------------------------------------------------- FP contraction guard --
// The GEMM determinism contract (gemm_dispatch.hpp) requires every path of
// a build — full tiles, row edges, column edges — to apply ONE rounding
// regime uniformly: the fused builds (gemm_tile.inl) one FMA chain per
// element, the generic build (gemm_kernels.inl) a separate rounding per
// mul and add. Both regimes are deterministic; what breaks bitwise
// batched≡single inference is a MIX — e.g. a vectorized body that contracts
// while its scalar epilogue does not, a bug the serving engine's
// batched≡single tests once caught. These tests therefore pin, with
// bitwise comparisons, that (a) the edge path matches either the
// separate-rounding chain or the std::fma chain for EVERY element — never
// a blend — and the one its build declares, (b) tile and edge paths agree
// bitwise, and (c) every build the CPU supports equals its reference chain
// over every edge shape. This TU is itself built with -ffp-contract=off
// (CMakeLists) so the `plain` reference loops round each step separately.

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(GemmContraction, RowEdgeRoundingIsUniformAndPinned) {
  // A 1-row matmul runs entirely in the scalar row-edge path, whichever
  // kernel build dispatch selected.
  constexpr std::size_t kK = 64, kN = 3;
  sgm::util::Rng rng(17);
  Matrix a = random_matrix(1, kK, rng);
  Matrix b = random_matrix(kK, kN, rng);
  Matrix c = sgm::tensor::matmul(a, b);

  bool some_element_is_fma_sensitive = false;
  bool all_plain = true, all_fused = true;
  for (std::size_t j = 0; j < kN; ++j) {
    double plain = 0.0;  // separate rounding: mul rounds, then add rounds
    double fused = 0.0;  // contracted: each step rounds once, via std::fma
    for (std::size_t p = 0; p < kK; ++p) {
      const double prod = a(0, p) * b(p, j);
      plain += prod;
      fused = std::fma(a(0, p), b(p, j), fused);
    }
    if (!bits_equal(plain, fused)) some_element_is_fma_sensitive = true;
    if (!bits_equal(c(0, j), plain)) all_plain = false;
    if (!bits_equal(c(0, j), fused)) all_fused = false;
  }
  // The inputs must actually distinguish the two roundings, or the check
  // below proves nothing.
  ASSERT_TRUE(some_element_is_fma_sensitive);
  // One regime, uniformly: every element matches the separate-rounding
  // reference, or every element matches the std::fma chain bitwise. A blend
  // means the compiler contracted only part of the edge loop — the
  // determinism contract is broken and the kernel flags need attention.
  EXPECT_TRUE(all_plain || all_fused)
      << "edge path mixes contracted and separate rounding (gemm build "
      << sgm::tensor::gemm_build().name << ")";
  // The two regimes disagree on at least one element, so exactly one holds,
  // and it is the one the selected build declares.
  EXPECT_NE(all_plain, all_fused);
  EXPECT_EQ(all_fused, sgm::tensor::gemm_build().fused);
}

TEST(GemmContraction, TileAndEdgePathsAgreeBitwise) {
  // Five identical rows: rows 0-3 run through the register-blocked tile
  // path, row 4 through the scalar row edge; 11 columns exercise the
  // column-edge path too (8-wide tile + 3-wide edge). Any rounding
  // difference between paths (e.g. contraction in just one of them) breaks
  // the bitwise equality.
  constexpr std::size_t kK = 37, kN = 11, kRows = 5;
  sgm::util::Rng rng(23);
  Matrix row = random_matrix(1, kK, rng);
  Matrix b = random_matrix(kK, kN, rng);
  Matrix a(kRows, kK);
  for (std::size_t i = 0; i < kRows; ++i)
    for (std::size_t p = 0; p < kK; ++p) a(i, p) = row(0, p);

  Matrix c = sgm::tensor::matmul(a, b);
  Matrix c_single = sgm::tensor::matmul(row, b);
  for (std::size_t i = 0; i < kRows; ++i)
    for (std::size_t j = 0; j < kN; ++j)
      EXPECT_TRUE(bits_equal(c(i, j), c_single(0, j)))
          << "row " << i << " col " << j
          << " rounds differently from the single-row edge path";
}

TEST(GemmContraction, DispatchSelectsFirstAvailableBuild) {
  const auto builds = sgm::tensor::gemm_builds();
  ASSERT_FALSE(builds.empty());
  EXPECT_STREQ(builds.back().name, "generic");
  EXPECT_TRUE(builds.back().available);
  EXPECT_FALSE(builds.back().fused);
  const sgm::tensor::GemmBuild* first = nullptr;
  for (const auto& b : builds)
    if (!first && b.available) first = &b;
  EXPECT_EQ(&sgm::tensor::gemm_build(), first);
}

// ---------------------------------------------------- per-build bitwise --
// Every kernel build against its per-element reference chain, bit for bit:
// a fused build must give exactly s = fma(A(i,p), B(p,j), s) over ascending
// p from 0, the generic build s = s + A(i,p) * B(p,j), whatever tile, masked
// column edge or row edge the element falls in. Accumulation adds the chain
// to the prior C. Since both fused builds equal the same chain, the AVX2 and
// AVX-512 builds agree bitwise.

class GemmBuildBitwise : public ::testing::TestWithParam<const char*> {
 protected:
  // The build under test; skips when this binary or CPU lacks it.
  const sgm::tensor::GemmBuild* build() {
    for (const auto& b : sgm::tensor::gemm_builds()) {
      if (std::string(b.name) != GetParam()) continue;
      if (b.available) return &b;
      break;
    }
    return nullptr;
  }

  // C = op(A) * B through `b`, on and off accumulate, with op(A) = A (NN)
  // or A^T (TN), for output rows [0, m) split at `split`, checked against
  // the reference chain element by element.
  void check(const sgm::tensor::GemmBuild& b, bool tn, std::size_t m,
             std::size_t k, std::size_t n, std::size_t split,
             sgm::util::Rng& rng) {
    const Matrix a = tn ? random_matrix(k, m, rng) : random_matrix(m, k, rng);
    const Matrix bm = random_matrix(k, n, rng);
    const Matrix c0 = random_matrix(m, n, rng);
    for (bool accumulate : {false, true}) {
      Matrix c = c0;
      const auto kernel = tn ? b.tn : b.nn;
      kernel(a, bm, c, 0, split, accumulate);
      kernel(a, bm, c, split, m, accumulate);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          double s = 0.0;
          for (std::size_t p = 0; p < k; ++p) {
            const double av = tn ? a(p, i) : a(i, p);
            s = b.fused ? std::fma(av, bm(p, j), s) : s + av * bm(p, j);
          }
          const double want = accumulate ? c0(i, j) + s : s;
          ASSERT_TRUE(bits_equal(c(i, j), want))
              << b.name << (tn ? " TN " : " NN ") << m << "x" << k << "x"
              << n << " split " << split << " accumulate " << accumulate
              << " at (" << i << ", " << j << ")";
        }
      }
    }
  }
};

TEST_P(GemmBuildBitwise, EdgesMatchTheReferenceChain) {
  const sgm::tensor::GemmBuild* b = build();
  if (!b) GTEST_SKIP() << "CPU or build lacks the " << GetParam() << " kernels";
  sgm::util::Rng rng(31);
  // Column remainders 1-15 past zero, one and two 16-wide tiles (so both
  // the 8- and 16-wide tiles see every remainder), row remainders 1-3 past
  // zero and one 4-row block, and row ranges split off the 4-row grid; an
  // empty reduction (k = 0) must write zeros or leave C as it was.
  for (bool tn : {false, true}) {
    for (std::size_t k : {0, 7}) {
      for (std::size_t m : {1, 2, 3, 4, 5, 6, 7, 9}) {
        for (std::size_t n = 1; n <= 47; ++n) {
          check(*b, tn, m, k, n, m / 2, rng);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST_P(GemmBuildBitwise, RegisteredStepShapesMatchTheReferenceChain) {
  const sgm::tensor::GemmBuild* b = build();
  if (!b) GTEST_SKIP() << "CPU or build lacks the " << GetParam() << " kernels";
  sgm::util::Rng rng(37);
  // The registered width-48 step's GEMMs (128-row batch, 26 Fourier
  // features): the output layer and its weight gradient, the first layer's
  // weight gradient, and the hidden layers' forward and weight gradient.
  check(*b, /*tn=*/false, 128, 48, 3, 0, rng);
  check(*b, /*tn=*/true, 48, 128, 3, 0, rng);
  check(*b, /*tn=*/true, 26, 128, 48, 0, rng);
  check(*b, /*tn=*/false, 128, 48, 48, 0, rng);
  check(*b, /*tn=*/true, 48, 128, 48, 0, rng);
}

INSTANTIATE_TEST_SUITE_P(AllBuilds, GemmBuildBitwise,
                         ::testing::Values("avx512", "avx2", "generic"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
