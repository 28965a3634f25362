// Tape v2 regression tests: the bump-arena reuse contract (zero heap
// allocations in the steady-state tape/forward/backward path, and scoring
// memory that does not grow with the number of rows scored), the fused
// affine/activation ops against their unfused compositions, the blocked
// GEMM kernels against the naive _reference oracles over random and
// degenerate shapes, the work floor that decides when a kernel fans out, and
// bitwise thread-count invariance of the threaded kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "nn/activation.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "pinn/scenario.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "tensor/tape.hpp"
#include "util/rng.hpp"

// ------------------------------------------------------ allocation counter --
// Global operator new/delete hook. Counting is scoped: only allocations made
// while an AllocScope is live are counted, with their requested bytes (on
// any thread, pool workers included), so gtest's own bookkeeping stays out
// of the tally.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using sgm::nn::Mlp;
using sgm::nn::MlpConfig;
using sgm::tensor::Matrix;
using sgm::tensor::Tape;
using sgm::tensor::VarId;
namespace ops = sgm::tensor;

struct AllocScope {
  AllocScope() {
    g_alloc_count.store(0);
    g_alloc_bytes.store(0);
    g_count_allocs.store(true);
  }
  ~AllocScope() { g_count_allocs.store(false); }
  std::uint64_t count() const { return g_alloc_count.load(); }
  std::uint64_t bytes() const { return g_alloc_bytes.load(); }
};

Matrix random_matrix(std::size_t r, std::size_t c, sgm::util::Rng& rng,
                     double scale = 1.0) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = rng.normal(0.0, scale);
  return m;
}

// ------------------------------------------------------------ arena reuse --

TEST(TapeArena, ClearRetainsCapacityAndReusesSlots) {
  Tape t;
  sgm::util::Rng rng(1);
  const Matrix a0 = random_matrix(16, 8, rng);
  const Matrix b0 = random_matrix(16, 8, rng);
  VarId p = t.parameter(a0);
  VarId c = t.constant(b0);
  VarId root = ops::mean_all(t, ops::square(t, ops::mul(t, p, c)));
  t.backward(root);
  const double g00 = t.grad(p)(0, 0);
  const std::size_t nodes = t.num_nodes();

  for (int step = 0; step < 3; ++step) {
    t.clear();
    EXPECT_EQ(t.num_nodes(), 0u);
    p = t.parameter(a0);
    c = t.constant(b0);
    root = ops::mean_all(t, ops::square(t, ops::mul(t, p, c)));
    EXPECT_EQ(t.num_nodes(), nodes);
    t.backward(root);
    EXPECT_DOUBLE_EQ(t.grad(p)(0, 0), g00) << "reuse changed the result";
  }
}

TEST(TapeArena, GradOfUntouchedNodeIsEmptyAfterReuse) {
  Tape t;
  // First pass: a constant that never receives a gradient, but whose slot's
  // grad buffer gets dirtied when the slot is later reused as a parameter.
  VarId p = t.parameter(Matrix(2, 2, 1.0));
  VarId root = ops::sum_all(t, p);
  t.backward(root);
  EXPECT_FALSE(t.grad(p).empty());

  t.clear();
  VarId c = t.constant(Matrix(2, 2, 3.0));  // reuses the parameter's slot
  VarId p2 = t.parameter(Matrix(2, 2, 2.0));
  root = ops::sum_all(t, ops::mul(t, c, p2));
  t.backward(root);
  EXPECT_TRUE(t.grad(c).empty()) << "stale grad leaked through slot reuse";
  EXPECT_DOUBLE_EQ(t.grad(p2)(0, 0), 3.0);
}

// Heap allocations over five steady-state training iterations after three
// warm-up ones: clear, bind, forward with second derivatives, loss,
// backward, grad collection, Adam.
std::uint64_t steady_state_step_allocs(const MlpConfig& cfg, const Matrix& x,
                                       std::size_t threads) {
  sgm::util::Rng rng(7);
  Mlp net(cfg, rng);
  sgm::nn::Adam adam(1e-3);
  const std::vector<Matrix*> params = net.parameters();

  Tape tape;
  tape.set_num_threads(threads);
  Mlp::Binding binding;
  Mlp::TapeOutputs out;
  std::vector<Matrix> grads;

  auto step = [&]() {
    tape.clear();
    net.bind(tape, &binding);
    net.forward_on_tape(tape, binding, x, /*n_deriv=*/2, &out);
    const VarId lap = ops::add(tape, out.d2y[0], out.d2y[1]);
    const VarId loss = ops::mean_all(tape, ops::square(tape, lap));
    tape.backward(loss);
    net.collect_grads_into(tape, binding, &grads);
    adam.step(params, grads);
  };

  for (int warmup = 0; warmup < 3; ++warmup) step();

  AllocScope scope;
  for (int it = 0; it < 5; ++it) step();
  return scope.count();
}

// An identity-encoded 2-input, 1-output network.
std::uint64_t identity_net_step_allocs(std::size_t rows, std::size_t width,
                                       std::size_t depth,
                                       std::size_t threads) {
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 1;
  cfg.width = width;
  cfg.depth = depth;
  sgm::util::Rng rng(8);
  return steady_state_step_allocs(cfg, random_matrix(rows, 2, rng), threads);
}

TEST(TapeArena, SteadyStateTrainingStepAllocatesNothing) {
  // After warm-up, a full training iteration's tape/forward/backward path
  // performs ZERO heap allocations.
  EXPECT_EQ(identity_net_step_allocs(32, 16, 3, 1), 0u)
      << "steady-state training step performed heap allocations";
}

TEST(TapeArena, RegisteredStepShapeAllocatesNothingAtFourThreads) {
  // The registered scenarios' step shape (128 rows, width 48, depth 4) is
  // below the work floor in every kernel, so it runs inline at 4 threads
  // and never enqueues a pool task, each of which would allocate.
  EXPECT_EQ(identity_net_step_allocs(128, 48, 4, 4), 0u)
      << "registered-shape step at 4 threads performed heap allocations";
}

// The registered kFull network of `scenario` (Fourier features included)
// on its first batch_size interior points, at 1 and 4 threads: the
// encoding writes into the tape's pooled leaves, so the step allocates
// nothing either.
void expect_registered_step_allocates_nothing(const char* scenario) {
  const sgm::pinn::ScenarioConfig cfg =
      sgm::pinn::ScenarioRegistry::instance().make(
          scenario, sgm::pinn::ScenarioScale::kFull);
  ASSERT_NE(cfg.net.encoding, nullptr) << scenario;
  const Matrix& cloud = cfg.problem->interior_points();
  const std::size_t rows = cfg.trainer.batch_size;
  ASSERT_LE(rows, cloud.rows());
  Matrix x(rows, cloud.cols());
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cloud.cols(); ++c) x(r, c) = cloud(r, c);
  for (std::size_t threads : {1, 4})
    EXPECT_EQ(steady_state_step_allocs(cfg.net, x, threads), 0u)
        << scenario << " step at " << threads
        << " threads performed heap allocations";
}

TEST(TapeArena, RegisteredLdcStepAllocatesNothing) {
  expect_registered_step_allocates_nothing("ldc_zeroeq");
}

TEST(TapeArena, RegisteredAnnulusStepAllocatesNothing) {
  expect_registered_step_allocates_nothing("annular_ring_param");
}

// Bytes one pointwise_residual call allocates for the first `n` points of
// the problem's cloud (the returned scores included).
std::uint64_t residual_alloc_bytes(const sgm::pinn::PinnProblem& problem,
                                   const Mlp& net, std::size_t n) {
  std::vector<std::uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  AllocScope scope;
  const std::vector<double> scores = problem.pointwise_residual(net, rows);
  EXPECT_EQ(scores.size(), n);
  return scope.bytes();
}

TEST(TapeArena, ScoringMemoryDoesNotGrowWithRows) {
  // Representatives are scored in fixed-size blocks on one reused tape, so
  // 8x the rows must not cost 8x the memory: the registered annulus (kFull
  // network and cloud, Fourier features) at 2,048 vs 256 rows.
  const sgm::pinn::ScenarioConfig cfg =
      sgm::pinn::ScenarioRegistry::instance().make(
          "annular_ring_param", sgm::pinn::ScenarioScale::kFull);
  sgm::util::Rng rng(cfg.net_seed);
  const Mlp net(cfg.net, rng);
  const std::uint64_t small = residual_alloc_bytes(*cfg.problem, net, 256);
  const std::uint64_t large = residual_alloc_bytes(*cfg.problem, net, 2048);
  EXPECT_LT(large, 3 * small)
      << "scoring 2,048 rows allocated " << large << " bytes, 256 rows "
      << small;
}

// -------------------------------------------------------------- fused ops --

TEST(FusedOps, AffineMatchesMatmulAddRowvec) {
  sgm::util::Rng rng(2);
  for (auto [n, k, d] : {std::array<std::size_t, 3>{5, 3, 4},
                         std::array<std::size_t, 3>{1, 1, 1},
                         std::array<std::size_t, 3>{17, 9, 13}}) {
    const Matrix a = random_matrix(n, k, rng);
    const Matrix w = random_matrix(k, d, rng);
    const Matrix b = random_matrix(1, d, rng);
    Tape t;
    VarId av = t.constant(a);
    VarId wv = t.parameter(w);
    VarId bv = t.parameter(b);
    VarId fused = ops::affine(t, av, wv, bv);
    VarId unfused = ops::add_rowvec(t, ops::matmul(t, av, wv), bv);
    EXPECT_LT((t.value(fused) - t.value(unfused)).max_abs(), 1e-12)
        << n << "x" << k << "x" << d;
  }
}

TEST(FusedOps, AffineGradcheck) {
  sgm::util::Rng rng(3);
  const Matrix a = random_matrix(6, 3, rng);
  const Matrix w0 = random_matrix(3, 4, rng);
  const Matrix b0 = random_matrix(1, 4, rng);

  auto loss_of = [&](const Matrix& w, const Matrix& b) {
    Tape t;
    VarId av = t.constant(a);
    VarId y = ops::affine(t, av, t.parameter(w), t.parameter(b));
    return t.value(ops::mean_all(t, ops::square(t, y)))(0, 0);
  };

  Tape t;
  VarId av = t.constant(a);
  VarId wv = t.parameter(w0);
  VarId bv = t.parameter(b0);
  t.backward(ops::mean_all(t, ops::square(t, ops::affine(t, av, wv, bv))));

  const double h = 1e-6;
  for (std::size_t i = 0; i < w0.size(); ++i) {
    Matrix wp = w0, wm = w0;
    wp.data()[i] += h;
    wm.data()[i] -= h;
    const double numeric = (loss_of(wp, b0) - loss_of(wm, b0)) / (2 * h);
    EXPECT_NEAR(t.grad(wv).data()[i], numeric, 1e-6) << "w entry " << i;
  }
  for (std::size_t i = 0; i < b0.size(); ++i) {
    Matrix bp = b0, bm = b0;
    bp.data()[i] += h;
    bm.data()[i] -= h;
    const double numeric = (loss_of(w0, bp) - loss_of(w0, bm)) / (2 * h);
    EXPECT_NEAR(t.grad(bv).data()[i], numeric, 1e-6) << "b entry " << i;
  }
}

TEST(FusedOps, ActivationSweepMatchesApplyLadder) {
  sgm::util::Rng rng(4);
  const Matrix z = random_matrix(7, 5, rng);
  for (const sgm::nn::Activation* act :
       {&sgm::nn::silu(), &sgm::nn::tanh_act(), &sgm::nn::sigmoid_act()}) {
    Tape t;
    VarId zv = t.constant(z);
    VarId s = ops::activation(t, zv, *act, /*orders=*/3);
    EXPECT_LT((t.value(s) - t.value(ops::apply(t, zv, *act, 0))).max_abs(),
              1e-12)
        << act->name();
    // The sweep's aux buffers are exercised through act_chain / act_curve.
    const Matrix zk = random_matrix(7, 5, rng);
    const Matrix hzk = random_matrix(7, 5, rng);
    VarId zkv = t.constant(zk);
    VarId hzkv = t.constant(hzk);
    VarId chain = ops::act_chain(t, s, zkv);
    VarId ref_chain = ops::mul(t, ops::apply(t, zv, *act, 1), zkv);
    EXPECT_LT((t.value(chain) - t.value(ref_chain)).max_abs(), 1e-12)
        << act->name();
    VarId curve = ops::act_curve(t, s, zkv, hzkv);
    VarId ref_curve = ops::add(
        t, ops::mul(t, ops::apply(t, zv, *act, 2), ops::square(t, zkv)),
        ops::mul(t, ops::apply(t, zv, *act, 1), hzkv));
    EXPECT_LT((t.value(curve) - t.value(ref_curve)).max_abs(), 1e-12)
        << act->name();
  }
}

TEST(FusedOps, ActChainAndCurveGradcheck) {
  // End-to-end gradient of a loss built from the fused derivative-
  // propagation ops, checked against the unfused composition's gradient.
  sgm::util::Rng rng(5);
  const Matrix z0 = random_matrix(4, 3, rng);
  const Matrix zk = random_matrix(4, 3, rng);
  const Matrix hzk = random_matrix(4, 3, rng);
  const auto& act = sgm::nn::silu();

  Tape tf;
  VarId zf = tf.parameter(z0);
  VarId sf = ops::activation(tf, zf, act, 3);
  VarId rootf = ops::mean_all(
      tf, ops::square(tf, ops::add(tf, ops::act_chain(tf, sf, tf.constant(zk)),
                                   ops::act_curve(tf, sf, tf.constant(zk),
                                                  tf.constant(hzk)))));
  tf.backward(rootf);

  Tape tu;
  VarId zu = tu.parameter(z0);
  VarId s1 = ops::apply(tu, zu, act, 1);
  VarId s2 = ops::apply(tu, zu, act, 2);
  VarId zkc = tu.constant(zk);
  VarId chain = ops::mul(tu, s1, zkc);
  VarId curve = ops::add(tu, ops::mul(tu, s2, ops::square(tu, zkc)),
                         ops::mul(tu, s1, tu.constant(hzk)));
  VarId rootu =
      ops::mean_all(tu, ops::square(tu, ops::add(tu, chain, curve)));
  tu.backward(rootu);

  EXPECT_LT((tf.value(rootf) - tu.value(rootu)).max_abs(), 1e-12);
  EXPECT_LT((tf.grad(zf) - tu.grad(zu)).max_abs(), 1e-10);
}

// ---------------------------------------------------------- GEMM property --

TEST(BlockedGemm, MatchesReferenceOverShapes) {
  sgm::util::Rng rng(6);
  // Random shapes around the block sizes plus degenerate cases: empty
  // matrices, single elements, and non-multiples of the 4x8 tile.
  const std::size_t dims[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33};
  for (std::size_t m : dims) {
    for (std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{32}}) {
      for (std::size_t n : dims) {
        const Matrix a = random_matrix(m ? m : 0, k, rng);
        const Matrix b = random_matrix(k, n, rng);
        const Matrix blocked = sgm::tensor::matmul(a, b);
        const Matrix reference = sgm::tensor::matmul_reference(a, b);
        ASSERT_EQ(blocked.rows(), m);
        ASSERT_EQ(blocked.cols(), n);
        if (m && n) {
          EXPECT_LT((blocked - reference).max_abs(),
                    1e-13 * (1.0 + reference.max_abs()))
              << m << "x" << k << "x" << n;
        }

        const Matrix at = random_matrix(k, m, rng);  // for A^T B
        EXPECT_LT((sgm::tensor::matmul_tn(at, b) -
                   sgm::tensor::matmul_tn_reference(at, b))
                      .max_abs(),
                  1e-12)
            << "tn " << m << "x" << k << "x" << n;

        const Matrix bt = random_matrix(n, k, rng);  // for A B^T
        EXPECT_LT((sgm::tensor::matmul_nt(a, bt) -
                   sgm::tensor::matmul_nt_reference(a, bt))
                      .max_abs(),
                  1e-12)
            << "nt " << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(BlockedGemm, RangeKernelsAndAccumulate) {
  sgm::util::Rng rng(7);
  const Matrix a = random_matrix(21, 13, rng);
  const Matrix b = random_matrix(13, 11, rng);
  Matrix c(21, 11, 1.0);
  // Disjoint row ranges must tile exactly like a full-range call.
  sgm::tensor::gemm_nn(a, b, c, 0, 9, /*accumulate=*/false);
  sgm::tensor::gemm_nn(a, b, c, 9, 21, /*accumulate=*/false);
  EXPECT_LT((c - sgm::tensor::matmul_reference(a, b)).max_abs(), 1e-12);

  Matrix acc = c;
  sgm::tensor::gemm_nn(a, b, acc, 0, 21, /*accumulate=*/true);
  Matrix twice = sgm::tensor::matmul_reference(a, b);
  twice.scale(2.0);
  EXPECT_LT((acc - twice).max_abs(), 1e-12);
}

// --------------------------------------------------- thread invariance ----

TEST(ThreadedTape, ParallelRangeCutsByWork) {
  using Cuts = std::vector<std::pair<std::size_t, std::size_t>>;
  // The (begin, end) calls parallel_range makes, sorted, and whether all of
  // them ran on the calling thread.
  auto cuts = [](std::size_t threads, std::size_t n, std::size_t work,
                 bool* inline_only = nullptr) {
    Tape tape;
    tape.set_num_threads(threads);
    std::mutex mu;
    Cuts calls;
    bool on_caller = true;
    const std::thread::id caller = std::this_thread::get_id();
    tape.parallel_range(n, work, [&](std::size_t b, std::size_t e) {
      std::lock_guard<std::mutex> lock(mu);
      calls.emplace_back(b, e);
      if (std::this_thread::get_id() != caller) on_caller = false;
    });
    std::sort(calls.begin(), calls.end());
    if (inline_only) *inline_only = on_caller && calls.size() == 1;
    return calls;
  };

  // The registered step's largest GEMM, 128 x 48 x 48, is one inline call.
  bool inline_only = false;
  const Cuts small = cuts(4, 128, 48 * 48, &inline_only);
  EXPECT_TRUE(inline_only);
  ASSERT_EQ(small.size(), 1u);
  EXPECT_EQ(small[0], std::make_pair(std::size_t{0}, std::size_t{128}));
  // So is its 128 x 48 activation sweep.
  EXPECT_EQ(cuts(4, 128 * 48, Tape::kTranscendentalWork).size(), 1u);

  // A 2,048 x 64 x 64 GEMM splits on the 4-row tile, with the same
  // boundaries at 2 and 4 threads; at 1 thread it runs inline.
  const Cuts c2 = cuts(2, 2048, 64 * 64);
  const Cuts c4 = cuts(4, 2048, 64 * 64);
  EXPECT_GE(c4.size(), 2u);
  EXPECT_EQ(c2, c4);
  std::size_t next = 0;
  for (const auto& [b, e] : c4) {
    EXPECT_EQ(b, next);
    EXPECT_EQ(b % 4, 0u) << "chunk boundary off the GEMM tile";
    next = e;
  }
  EXPECT_EQ(next, 2048u);
  EXPECT_EQ(cuts(1, 2048, 64 * 64, &inline_only).size(), 1u);
  EXPECT_TRUE(inline_only);

  // The paper's large-batch arm (1,024 rows, width 48) still fans out, and
  // so do the pointwise loops of the 2,049 x 64 test below.
  EXPECT_GE(cuts(4, 1024, 48 * 48).size(), 2u);
  EXPECT_GE(cuts(4, 2049 * 64, Tape::kPointwiseWork).size(), 2u);
}

TEST(ThreadedTape, ForwardBackwardBitwiseIdenticalAcrossThreadCounts) {
  // 2,049 x 64 is above the work floor, so the GEMMs, activation sweeps
  // and pointwise loops really fan out at 4 threads
  // (ParallelRangeCutsByWork pins the cut), and the odd row count leaves a
  // ragged tail chunk.
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 1;
  cfg.width = 64;
  cfg.depth = 3;
  sgm::util::Rng rng(11);
  Mlp net(cfg, rng);
  const Matrix x = random_matrix(2049, 2, rng);

  auto run = [&](std::size_t threads, Matrix* loss) {
    Tape tape;
    tape.set_num_threads(threads);
    Mlp::Binding binding;
    net.bind(tape, &binding);
    auto out = net.forward_on_tape(tape, binding, x, 2);
    const VarId lap = ops::add(tape, out.d2y[0], out.d2y[1]);
    const VarId root = ops::mean_all(tape, ops::square(tape, lap));
    tape.backward(root);
    *loss = tape.value(root);
    return net.collect_grads(tape, binding);
  };

  Matrix loss1, loss4;
  const auto g1 = run(1, &loss1);
  const auto g4 = run(4, &loss4);
  ASSERT_EQ(g1.size(), g4.size());
  EXPECT_EQ(loss1(0, 0), loss4(0, 0)) << "loss not bitwise identical";
  for (std::size_t i = 0; i < g1.size(); ++i)
    for (std::size_t j = 0; j < g1[i].size(); ++j)
      ASSERT_EQ(g1[i].data()[j], g4[i].data()[j])
          << "grad " << i << " entry " << j << " differs across thread counts";
}

}  // namespace
