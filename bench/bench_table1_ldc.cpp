// Table 1 reproduction: "Minimum Validation Errors and Time to Achieve for
// LDC_zeroEq" — four arms (uniform small batch, uniform large batch,
// Modulus-style importance sampling, SGM-PINN), identical trainer and
// network, validation against the vorticity-streamfunction FD reference.
//
// Paper arms:   U_500 (b=500, N=8M)   U_4000 (b=4000, N=16M)
//               MIS_500               SGM_500 (k=30, L=10, r=15%)
// Scaled arms:  U_small (b=128, N=16k) U_large (b=1024, N=32k)
//               MIS_small             SGM_small (k=20, L=10, r=15%)
// The controlled variable (the sampler) and the batch/dataset ratios match
// the paper; absolute sizes are scaled to one CPU core.

#include <cstdio>
#include <memory>

#include "common.hpp"
#include "pinn/navier_stokes.hpp"
#include "pinn/scenario.hpp"

using namespace sgm;

int main() {
  const double budget = bench::budget_seconds(30.0);
  const int seeds = bench::num_seeds(1);
  std::printf("bench_table1_ldc: budget %.0fs/arm, %d seed(s)\n", budget,
              seeds);

  // The registered ldc_zeroeq scenario is the small-N problem; its
  // reference fields (the OpenFOAM stand-in) serve every arm.
  const pinn::ScenarioConfig scenario = pinn::ScenarioRegistry::instance().make(
      "ldc_zeroeq", pinn::ScenarioScale::kFull);
  const auto& small_problem =
      dynamic_cast<const pinn::LdcProblem&>(*scenario.problem);
  std::printf("reference solver: converged after %d outer iterations\n",
              small_problem.reference()->iterations);

  // Large-N problem for the baseline (paper: 8M vs 16M; here 16k vs 32k,
  // same 1:2 ratio).
  pinn::LdcProblem::Options large_opt = small_problem.options();
  large_opt.interior_points = 32768;
  pinn::LdcProblem large_problem(large_opt, small_problem.reference());

  nn::MlpConfig net_cfg;
  net_cfg.input_dim = 2;
  net_cfg.output_dim = 3;
  net_cfg.width = 48;   // paper: 512x6; scaled
  net_cfg.depth = 4;
  net_cfg.activation = &nn::silu();
  util::Rng enc_rng(4242);  // same Fourier features for every arm
  net_cfg.encoding = std::make_shared<nn::FourierEncoding>(2, 12, 1.5, enc_rng);

  const std::uint64_t validate_every = 150;

  bench::Arm u_small;
  u_small.label = "U_small";
  u_small.kind = bench::SamplerKind::kUniform;
  u_small.batch_size = 128;

  bench::Arm u_large;
  u_large.label = "U_large";
  u_large.kind = bench::SamplerKind::kUniform;
  u_large.batch_size = 1024;  // paper keeps the 1:8 batch ratio

  bench::Arm mis;
  mis.label = "MIS_small";
  mis.kind = bench::SamplerKind::kMis;
  mis.batch_size = 128;
  mis.mis.refresh_every = 700;  // tau_e, scaled 10x from the paper's 7k
  mis.mis.num_seeds = 0;        // Modulus MIS re-scores the full dataset

  bench::Arm sgm;
  sgm.label = "SGM_small";
  sgm.kind = bench::SamplerKind::kSgm;
  sgm.batch_size = 128;
  sgm.sgm.pgm.knn.k = 20;       // paper: k=30 at N=8M
  sgm.sgm.lrd.levels = 10;      // paper: L=10
  sgm.sgm.rep_fraction = 0.15;  // paper: r=15%
  sgm.sgm.tau_e = 700;
  sgm.sgm.tau_g = 2500;         // paper: 25k, scaled 10x
  sgm.sgm.epoch.epoch_fraction = 0.125;

  std::vector<bench::ArmResult> results;
  results.push_back(bench::run_arm(small_problem, u_small, net_cfg, budget,
                                   seeds, validate_every));
  results.push_back(bench::run_arm(large_problem, u_large, net_cfg, budget,
                                   seeds, validate_every));
  results.push_back(bench::run_arm(small_problem, mis, net_cfg, budget,
                                   seeds, validate_every));
  results.push_back(bench::run_arm(small_problem, sgm, net_cfg, budget,
                                   seeds, validate_every));

  bench::print_min_time_table(
      "Table 1: LDC_zeroEq minimum validation errors and time to achieve",
      results, {"u", "v", "nu"}, /*scenario=*/"ldc_zeroeq");
  return 0;
}
