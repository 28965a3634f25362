#include "pinn/scenario.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "cfd/ldc_solver.hpp"
#include "nn/encoding.hpp"
#include "pinn/annular.hpp"
#include "pinn/burgers.hpp"
#include "pinn/helmholtz.hpp"
#include "pinn/navier_stokes.hpp"
#include "pinn/thermal.hpp"

namespace sgm::pinn {

namespace {

bool smoke(ScenarioScale scale) { return scale == ScenarioScale::kSmoke; }

/// Shared trainer defaults; scenarios override budget/cadence.
TrainerOptions base_trainer(std::uint64_t iterations,
                            std::uint64_t validate_every) {
  TrainerOptions opt;
  opt.batch_size = 96;
  opt.max_iterations = iterations;
  opt.learning_rate = 2e-3;
  opt.lr_gamma = 0.97;
  opt.lr_decay_steps = 1000;
  opt.validate_every = validate_every;
  opt.seed = 404;
  return opt;
}

/// Shared SGM defaults: one mid-run S1/S2 rebuild at the smoke budget so
/// the tier-2 harness exercises the (threaded) rebuild path end to end.
core::SgmOptions base_sgm(std::size_t k, int levels, std::uint64_t tau_e,
                          std::uint64_t tau_g) {
  core::SgmOptions opt;
  opt.pgm.knn.k = k;
  opt.lrd.levels = levels;
  opt.rep_fraction = 0.15;
  opt.tau_e = tau_e;
  opt.tau_g = tau_g;
  opt.epoch.epoch_fraction = 0.25;
  return opt;
}

ScenarioConfig make_poisson(ScenarioScale scale) {
  const bool s = smoke(scale);
  ScenarioConfig cfg;
  cfg.name = "poisson2d";
  cfg.description =
      "-lap u = f on the unit square, manufactured sin*sin solution";
  PoissonProblem::Options popt;
  popt.interior_points = s ? 2048 : 4096;
  popt.boundary_points = s ? 256 : 512;
  cfg.problem = std::make_shared<PoissonProblem>(popt);
  cfg.net.input_dim = 2;
  cfg.net.output_dim = 1;
  cfg.net.width = s ? 24 : 32;
  cfg.net.depth = 3;
  cfg.trainer = base_trainer(s ? 600 : 2000, s ? 150 : 250);
  cfg.sgm = base_sgm(8, 5, /*tau_e=*/150, /*tau_g=*/300);
  cfg.envelopes = {{"u", 0.30}};
  return cfg;
}

ScenarioConfig make_ldc(ScenarioScale scale) {
  const bool s = smoke(scale);
  ScenarioConfig cfg;
  cfg.name = "ldc_zeroeq";
  cfg.description =
      "lid-driven cavity with zero-equation turbulence vs the FD reference";
  cfd::LdcOptions ref_opt;
  ref_opt.n = s ? 41 : 81;
  ref_opt.reynolds = 10.0;
  auto reference = std::make_shared<const cfd::LdcSolution>(
      cfd::solve_lid_driven_cavity(ref_opt));
  if (!reference->converged)
    throw std::runtime_error(
        cfg.name + ": reference solve did not converge in " +
        std::to_string(reference->iterations) + " iterations");
  LdcProblem::Options popt;
  popt.reynolds = 10.0;
  popt.interior_points = s ? 1024 : 16384;
  popt.boundary_points = s ? 256 : 2048;
  popt.zero_equation = true;
  cfg.problem = std::make_shared<LdcProblem>(popt, std::move(reference));
  cfg.net.input_dim = 2;
  cfg.net.output_dim = 3;  // (u, v, p)
  cfg.net.width = s ? 24 : 48;
  cfg.net.depth = s ? 3 : 4;
  if (!s) {
    util::Rng enc_rng(4242);
    cfg.net.encoding =
        std::make_shared<nn::FourierEncoding>(2, 12, 1.5, enc_rng);
  }
  cfg.trainer = base_trainer(s ? 2000 : 20000, 500);
  cfg.trainer.batch_size = s ? 64 : 128;
  cfg.sgm = base_sgm(s ? 10 : 20, s ? 6 : 10, /*tau_e=*/250, /*tau_g=*/900);
  cfg.sgm.epoch.epoch_fraction = 0.125;
  cfg.envelopes = {{"u", 0.90}, {"nu", 0.70}};
  return cfg;
}

ScenarioConfig make_annular(ScenarioScale scale) {
  const bool s = smoke(scale);
  ScenarioConfig cfg;
  cfg.name = "annular_ring_param";
  cfg.description =
      "parameterized annular Poiseuille flow (r_i as a network input), "
      "exact reference";
  AnnularProblem::Options popt;
  popt.interior_points = s ? 1024 : 16384;
  popt.boundary_points = s ? 256 : 2048;
  cfg.problem = std::make_shared<AnnularProblem>(popt);
  cfg.net.input_dim = 3;   // (z, r, r_i)
  cfg.net.output_dim = 3;  // (u, v, p)
  cfg.net.width = s ? 24 : 48;
  cfg.net.depth = s ? 3 : 4;
  if (!s) {
    util::Rng enc_rng(4242);
    cfg.net.encoding =
        std::make_shared<nn::FourierEncoding>(3, 12, 1.0, enc_rng);
  }
  cfg.trainer = base_trainer(s ? 2000 : 20000, 500);
  cfg.trainer.batch_size = s ? 64 : 128;
  cfg.sgm = base_sgm(7, 6, /*tau_e=*/250, /*tau_g=*/900);
  cfg.sgm.use_isr = true;  // the paper pairs S3 with parameterized training
  cfg.sgm.isr.rank = 4;
  cfg.sgm.isr.subspace_iterations = 3;
  cfg.envelopes = {{"u", 0.25}, {"v", 0.05}, {"p", 0.08}};
  return cfg;
}

ScenarioConfig make_chip_thermal(ScenarioScale scale) {
  const bool s = smoke(scale);
  ScenarioConfig cfg;
  cfg.name = "chip_thermal";
  cfg.description =
      "steady die temperature under a power-block floorplan vs FDM";
  ChipThermalProblem::Options popt;
  popt.interior_points = s ? 2048 : 8192;
  popt.boundary_points = s ? 256 : 1024;
  popt.reference_grid = s ? 65 : 129;
  cfg.problem = std::make_shared<ChipThermalProblem>(popt);
  cfg.net.input_dim = 2;
  cfg.net.output_dim = 1;
  cfg.net.width = s ? 24 : 40;
  cfg.net.depth = 3;
  cfg.trainer = base_trainer(s ? 500 : 10000, s ? 125 : 400);
  cfg.sgm = base_sgm(10, 8, /*tau_e=*/125, /*tau_g=*/250);
  cfg.sgm.epoch.epoch_fraction = 0.5;
  cfg.sgm.epoch.ratio_max = 2.5;
  cfg.envelopes = {{"T", 0.65}, {"T_peak_abs", 0.80}};
  return cfg;
}

ScenarioConfig make_burgers(ScenarioScale scale) {
  const bool s = smoke(scale);
  ScenarioConfig cfg;
  cfg.name = "burgers1d";
  cfg.description =
      "1-D viscous Burgers (shock-forming), Cole-Hopf exact reference";
  BurgersProblem::Options popt;
  popt.interior_points = s ? 2048 : 8192;
  popt.initial_points = s ? 192 : 512;
  popt.wall_points = s ? 64 : 192;
  cfg.problem = std::make_shared<BurgersProblem>(popt);
  cfg.net.input_dim = 2;  // (x, t)
  cfg.net.output_dim = 1;
  cfg.net.width = s ? 24 : 32;
  cfg.net.depth = 3;
  cfg.trainer = base_trainer(s ? 600 : 6000, s ? 150 : 300);
  cfg.sgm = base_sgm(8, 5, /*tau_e=*/150, /*tau_g=*/300);
  cfg.envelopes = {{"u", 0.70}};
  return cfg;
}

ScenarioConfig make_helmholtz(ScenarioScale scale) {
  const bool s = smoke(scale);
  ScenarioConfig cfg;
  cfg.name = "helmholtz2d";
  cfg.description =
      "2-D Helmholtz with an oscillatory manufactured mode (1, 4)";
  HelmholtzProblem::Options popt;
  popt.interior_points = s ? 2048 : 8192;
  popt.boundary_points = s ? 256 : 1024;
  cfg.problem = std::make_shared<HelmholtzProblem>(popt);
  cfg.net.input_dim = 2;
  cfg.net.output_dim = 1;
  cfg.net.width = s ? 24 : 40;
  cfg.net.depth = 3;
  // The (1, 4) mode is out of reach of a plain small MLP within the smoke
  // budget; Fourier features are part of the recommended configuration.
  util::Rng enc_rng(777);
  cfg.net.encoding = std::make_shared<nn::FourierEncoding>(2, 8, 2.0, enc_rng);
  cfg.trainer = base_trainer(s ? 600 : 6000, s ? 150 : 300);
  cfg.sgm = base_sgm(8, 5, /*tau_e=*/150, /*tau_g=*/300);
  cfg.envelopes = {{"u", 0.90}};
  return cfg;
}

}  // namespace

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    r->add("poisson2d", make_poisson);
    r->add("ldc_zeroeq", make_ldc);
    r->add("annular_ring_param", make_annular);
    r->add("chip_thermal", make_chip_thermal);
    r->add("burgers1d", make_burgers);
    r->add("helmholtz2d", make_helmholtz);
    return r;
  }();
  return *registry;
}

void ScenarioRegistry::add(const std::string& name, ScenarioFactory factory) {
  if (!factory)
    throw std::invalid_argument("ScenarioRegistry: null factory for " + name);
  if (!factories_.emplace(name, std::move(factory)).second)
    throw std::invalid_argument("ScenarioRegistry: duplicate scenario " +
                                name);
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

ScenarioConfig ScenarioRegistry::make(const std::string& name,
                                      ScenarioScale scale) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& n : names()) known += (known.empty() ? "" : ", ") + n;
    throw std::out_of_range("ScenarioRegistry: unknown scenario '" + name +
                            "' (registered: " + known + ")");
  }
  return it->second(scale);
}

}  // namespace sgm::pinn
