// Figure 2 reproduction: solution error of v by wall time for the LDC
// example — the error-vs-time convergence curves behind Table 1. Prints
// each arm's series and writes fig2_<arm>.csv files.

#include <cstdio>
#include <memory>

#include "common.hpp"
#include "pinn/navier_stokes.hpp"
#include "pinn/scenario.hpp"

using namespace sgm;

int main() {
  const double budget = bench::budget_seconds(25.0);
  const int seeds = bench::num_seeds(1);
  std::printf("bench_fig2_ldc_curves: budget %.0fs/arm, %d seed(s)\n",
              budget, seeds);

  // The registered ldc_zeroeq scenario is the small-N problem; its
  // reference fields serve every arm.
  const pinn::ScenarioConfig scenario = pinn::ScenarioRegistry::instance().make(
      "ldc_zeroeq", pinn::ScenarioScale::kFull);
  const auto& small_problem =
      dynamic_cast<const pinn::LdcProblem&>(*scenario.problem);

  pinn::LdcProblem::Options large_opt = small_problem.options();
  large_opt.interior_points = 32768;
  pinn::LdcProblem large_problem(large_opt, small_problem.reference());

  nn::MlpConfig net_cfg;
  net_cfg.input_dim = 2;
  net_cfg.output_dim = 3;
  net_cfg.width = 48;
  net_cfg.depth = 4;
  util::Rng enc_rng(4242);  // same Fourier features for every arm
  net_cfg.encoding = std::make_shared<nn::FourierEncoding>(2, 12, 1.5, enc_rng);

  const std::uint64_t validate_every = 100;

  bench::Arm u_small{"Uniform_small", bench::SamplerKind::kUniform, 128};
  bench::Arm u_large{"Uniform_large", bench::SamplerKind::kUniform, 1024};
  bench::Arm mis{"MIS_small", bench::SamplerKind::kMis, 128};
  mis.mis.refresh_every = 700;
  bench::Arm sgm{"SGM-PINN_small", bench::SamplerKind::kSgm, 128};
  sgm.sgm.pgm.knn.k = 20;
  sgm.sgm.lrd.levels = 10;
  sgm.sgm.rep_fraction = 0.15;
  sgm.sgm.tau_e = 700;
  sgm.sgm.tau_g = 2500;
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

  bench::print_curves("Figure 2: LDC solution error of v by wall time",
                      results, "v", "fig2", /*scenario=*/"ldc_zeroeq");
  return 0;
}
