// Sampler refresh overhead (Sections 3.1/3.5): SGM-PINN's key efficiency
// claim is that scoring r% of each cluster replaces scoring every sample.
// This bench measures one refresh of each strategy against the same
// network/problem, plus the per-refresh forward-pass counts, and the full
// S1/S2 rebuild of the registered LDC and annulus scenarios.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/sgm_sampler.hpp"
#include "nn/mlp.hpp"
#include "pinn/pde.hpp"
#include "pinn/scenario.hpp"
#include "samplers/mis.hpp"
#include "util/rng.hpp"

using namespace sgm;

namespace {

struct Fixture {
  pinn::PoissonProblem problem;
  nn::Mlp net;

  explicit Fixture(std::size_t n)
      : problem(make_problem(n)), net(make_net()) {}

  static pinn::PoissonProblem::Options make_problem_options(std::size_t n) {
    pinn::PoissonProblem::Options o;
    o.interior_points = n;
    o.boundary_points = 256;
    return o;
  }
  static pinn::PoissonProblem make_problem(std::size_t n) {
    return pinn::PoissonProblem(make_problem_options(n));
  }
  static nn::Mlp make_net() {
    nn::MlpConfig cfg;
    cfg.input_dim = 2;
    cfg.output_dim = 1;
    cfg.width = 48;
    cfg.depth = 4;
    util::Rng rng(5);
    return nn::Mlp(cfg, rng);
  }

  samplers::LossEvaluator evaluator() {
    return [this](const std::vector<std::uint32_t>& rows) {
      return problem.pointwise_residual(net, rows);
    };
  }
};

void BM_RefreshMisFull(benchmark::State& state) {
  Fixture fx(static_cast<std::size_t>(state.range(0)));
  samplers::MisOptions opt;
  opt.refresh_every = 1;
  opt.num_seeds = 0;  // Modulus default: score the entire dataset
  auto eval = fx.evaluator();
  util::Rng rng(1);
  std::uint64_t it = 0;
  samplers::MisSampler sampler(fx.problem.interior_points(), opt);
  for (auto _ : state) {
    sampler.maybe_refresh(it, eval, rng);
    it += 1;
  }
  state.counters["loss_evals_per_refresh"] = benchmark::Counter(
      static_cast<double>(sampler.loss_evaluations()) / it);
}
BENCHMARK(BM_RefreshMisFull)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_RefreshMisSeeded(benchmark::State& state) {
  Fixture fx(static_cast<std::size_t>(state.range(0)));
  samplers::MisOptions opt;
  opt.refresh_every = 1;
  opt.num_seeds = static_cast<std::size_t>(state.range(0)) / 20;
  auto eval = fx.evaluator();
  util::Rng rng(1);
  std::uint64_t it = 0;
  samplers::MisSampler sampler(fx.problem.interior_points(), opt);
  for (auto _ : state) {
    sampler.maybe_refresh(it, eval, rng);
    it += 1;
  }
  state.counters["loss_evals_per_refresh"] = benchmark::Counter(
      static_cast<double>(sampler.loss_evaluations()) / it);
}
BENCHMARK(BM_RefreshMisSeeded)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_RefreshSgm(benchmark::State& state) {
  // One SGM score+epoch refresh (clusters prebuilt, as on the tau_e path).
  Fixture fx(static_cast<std::size_t>(state.range(0)));
  core::SgmOptions opt;
  opt.pgm.knn.k = 10;
  opt.lrd.levels = 8;
  opt.tau_e = 1;
  opt.tau_g = 0;
  opt.rep_fraction = 0.15;  // the paper's r
  core::SgmSampler sampler(fx.problem.interior_points(), opt);
  auto eval = fx.evaluator();
  util::Rng rng(1);
  std::uint64_t it = 0;
  for (auto _ : state) {
    sampler.maybe_refresh(it, eval, rng);
    it += 1;
  }
  state.counters["loss_evals_per_refresh"] = benchmark::Counter(
      static_cast<double>(sampler.loss_evaluations()) / it);
  state.counters["clusters"] =
      benchmark::Counter(sampler.clusters().num_clusters());
}
BENCHMARK(BM_RefreshSgm)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_RefreshSgmWithIsr(benchmark::State& state) {
  Fixture fx(static_cast<std::size_t>(state.range(0)));
  core::SgmOptions opt;
  opt.pgm.knn.k = 10;
  opt.lrd.levels = 8;
  opt.tau_e = 1;
  opt.tau_g = 0;
  opt.rep_fraction = 0.15;
  opt.use_isr = true;
  opt.isr.rank = 6;
  opt.isr.subspace_iterations = 4;
  core::SgmSampler sampler(fx.problem.interior_points(), opt);
  auto eval = fx.evaluator();
  util::Rng rng(1);
  std::uint64_t it = 0;
  for (auto _ : state) {
    sampler.maybe_refresh(it, eval, rng);
    it += 1;
  }
  state.counters["loss_evals_per_refresh"] = benchmark::Counter(
      static_cast<double>(sampler.loss_evaluations()) / it);
}
BENCHMARK(BM_RefreshSgmWithIsr)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

// The registered kFull configurations whose rebuild BM_GraphRebuildTauG
// times, made once per process (LDC's includes its reference solve).
const pinn::ScenarioConfig& registered_full(std::int64_t which) {
  static const std::array<pinn::ScenarioConfig, 2> configs = {
      pinn::ScenarioRegistry::instance().make("ldc_zeroeq",
                                              pinn::ScenarioScale::kFull),
      pinn::ScenarioRegistry::instance().make("annular_ring_param",
                                              pinn::ScenarioScale::kFull)};
  return configs.at(static_cast<std::size_t>(which));
}

void BM_GraphRebuildTauG(benchmark::State& state) {
  // The tau_G path: one full S1+S2 rebuild (kNN PGM, ER embedding, LRD
  // merge) of a registered scenario, on its points with its cfg.sgm
  // options. First arg = scenario (0 = ldc_zeroeq: 16,384 points, k = 20,
  // L = 10; 1 = annular_ring_param: 16,384 points, k = 7, L = 6), second =
  // num_threads. The clustering is byte-identical at every thread count.
  // Time is wall; CPU is the whole process's, pool workers included.
  const pinn::ScenarioConfig& cfg = registered_full(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  core::PgmOptions pgm = cfg.sgm.pgm;
  graph::LrdOptions lrd = cfg.sgm.lrd;
  pgm.num_threads = lrd.num_threads = threads;
  graph::NodeId clusters = 0;
  for (auto _ : state) {
    auto g = core::build_pgm(cfg.problem->interior_points(), nullptr, pgm);
    auto c = graph::lrd_decompose(g, lrd);
    clusters = c.num_clusters;
    benchmark::DoNotOptimize(clusters);
  }
  state.SetLabel(cfg.name);
  state.counters["num_threads"] =
      benchmark::Counter(static_cast<double>(threads));
  state.counters["clusters"] = benchmark::Counter(clusters);
}
BENCHMARK(BM_GraphRebuildTauG)
    ->Args({0, 1})
    ->Args({0, 4})
    ->Args({1, 1})
    ->Args({1, 4})
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: SGM_BENCH_JSON=1 mirrors the experiment benches' machine-
// readable output by routing google-benchmark's JSON reporter to a file, so
// the rebuild wall times (including the thread-count sweep above) land in
// BENCH_overhead_sampling.json.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_overhead_sampling.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (const char* env = std::getenv("SGM_BENCH_JSON");
      env && std::string(env) != "0") {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
