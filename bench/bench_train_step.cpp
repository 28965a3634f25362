// One full training step of the PINN engine — tape record, forward with
// input-derivative propagation, backward, Adam update — swept over
// (batch, width, depth, n_deriv, threads). This is the denominator of every
// wall-clock result in the paper's tables, benchmarked in isolation from the
// samplers so kernel/tape changes show up undiluted.
//
// The synthetic rows use an identity-encoded network and a loss that
// mirrors a second-order PDE residual: mean((u_x0x0 + u_x1x1)^2) at
// n_deriv=2 (the lid-driven-cavity configuration), mean(u_x0^2) at
// n_deriv=1, mean(u^2) at n_deriv=0. BM_RegisteredStep times the registered
// kFull ldc_zeroeq and annular_ring_param steps themselves (Fourier
// features, the problem's batch_loss) at 1 thread.
//
// SGM_BENCH_JSON=1 routes google-benchmark's JSON reporter to
// BENCH_train_step.json (the perf-trajectory artifact uploaded by the
// perf-smoke CI job); its context records the GEMM kernel build dispatch
// selected on the host ("gemm_build").

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "pinn/scenario.hpp"
#include "tensor/gemm_dispatch.hpp"
#include "tensor/ops.hpp"
#include "tensor/tape.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace sgm;

namespace {

tensor::Matrix random_batch(std::size_t rows, std::size_t cols,
                            util::Rng& rng) {
  tensor::Matrix x(rows, cols);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = rng.uniform(-1.0, 1.0);
  return x;
}

void BM_TrainStep(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto width = static_cast<std::size_t>(state.range(1));
  const auto depth = static_cast<std::size_t>(state.range(2));
  const int n_deriv = static_cast<int>(state.range(3));
  const auto threads = static_cast<std::size_t>(state.range(4));

  nn::MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 1;
  cfg.width = width;
  cfg.depth = depth;
  util::Rng rng(42);
  nn::Mlp net(cfg, rng);
  const tensor::Matrix x = random_batch(batch, 2, rng);
  nn::Adam adam(1e-3);
  const std::vector<tensor::Matrix*> params = net.parameters();

  // The steady-state step exactly as Trainer::run performs it: one hoisted
  // tape cleared per step (pooled buffers, zero allocations), reused
  // binding/outputs/grads, threaded kernels.
  tensor::Tape tape;
  tape.set_num_threads(threads);
  nn::Mlp::Binding binding;
  nn::Mlp::TapeOutputs out;
  std::vector<tensor::Matrix> grads;

  for (auto _ : state) {
    tape.clear();
    net.bind(tape, &binding);
    net.forward_on_tape(tape, binding, x, n_deriv, &out);
    tensor::VarId residual = out.y;
    if (n_deriv == 1) residual = out.dy[0];
    if (n_deriv >= 2) residual = tensor::add(tape, out.d2y[0], out.d2y[1]);
    const tensor::VarId loss =
        tensor::mean_all(tape, tensor::square(tape, residual));
    tape.backward(loss);
    net.collect_grads_into(tape, binding, &grads);
    adam.step(params, grads);
    benchmark::DoNotOptimize(tape.value(loss)(0, 0));
  }
  state.counters["params"] =
      benchmark::Counter(static_cast<double>(net.num_parameters()));
}

// args: {batch, width, depth, n_deriv, threads}. Time is wall time and CPU
// is the whole process's, pool workers included, so a threaded row shows
// what its fan-out costs.
BENCHMARK(BM_TrainStep)
    ->Args({512, 64, 4, 2, 1})    // lid-driven-cavity smoke configuration
    ->Args({512, 64, 4, 2, 4})
    ->Args({512, 64, 4, 0, 1})
    ->Args({512, 64, 4, 1, 1})
    ->Args({128, 64, 4, 2, 1})
    ->Args({128, 48, 4, 2, 1})    // registered kFull step: below the floor
    ->Args({128, 48, 4, 2, 4})
    ->Args({1024, 48, 4, 2, 1})   // bench_table1_ldc U_large: above it
    ->Args({1024, 48, 4, 2, 4})
    ->Args({2048, 64, 4, 2, 1})
    ->Args({2048, 64, 4, 2, 4})
    ->Args({512, 128, 4, 2, 1})
    ->Args({512, 64, 8, 2, 1})
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The registered kFull step of `scenario` at 1 thread, as Trainer::run
// performs it: batch_loss over a fixed batch of interior rows (the problem
// draws its boundary batch from the step's rng), backward, grad
// collection, Adam. The scenario (LDC's reference solve included) is built
// outside the timed loop.
void BM_RegisteredStep(benchmark::State& state, const char* scenario) {
  const pinn::ScenarioConfig cfg = pinn::ScenarioRegistry::instance().make(
      scenario, pinn::ScenarioScale::kFull);
  util::Rng net_rng(cfg.net_seed);
  nn::Mlp net(cfg.net, net_rng);
  util::Rng rng(42);
  std::vector<std::uint32_t> rows(cfg.trainer.batch_size);
  const std::size_t cloud = cfg.problem->interior_points().rows();
  for (auto& r : rows)
    r = static_cast<std::uint32_t>(rng.uniform_index(cloud));
  nn::Adam adam(cfg.trainer.learning_rate);
  const std::vector<tensor::Matrix*> params = net.parameters();

  tensor::Tape tape;
  nn::Mlp::Binding binding;
  std::vector<tensor::Matrix> grads;

  for (auto _ : state) {
    tape.clear();
    net.bind(tape, &binding);
    const tensor::VarId loss =
        cfg.problem->batch_loss(tape, net, binding, rows, rng);
    tape.backward(loss);
    net.collect_grads_into(tape, binding, &grads);
    adam.step(params, grads);
    benchmark::DoNotOptimize(tape.value(loss)(0, 0));
  }
}

BENCHMARK_CAPTURE(BM_RegisteredStep, ldc_zeroeq, "ldc_zeroeq")
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RegisteredStep, annular_ring_param, "annular_ring_param")
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main mirroring bench_overhead_sampling: SGM_BENCH_JSON=1 writes the
// machine-readable run to BENCH_train_step.json next to the binary.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_train_step.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (const char* env = std::getenv("SGM_BENCH_JSON");
      env && std::string(env) != "0") {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  benchmark::AddCustomContext("gemm_build", tensor::gemm_build().name);
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
