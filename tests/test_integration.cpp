// End-to-end integration tests: the full trainer loop over real problems
// with every sampler, checking that training actually reduces validation
// error and that the SGM pipeline's moving parts cooperate.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/sgm_sampler.hpp"
#include "history_compare.hpp"
#include "nn/mlp.hpp"
#include "pinn/annular.hpp"
#include "pinn/navier_stokes.hpp"
#include "pinn/pde.hpp"
#include "pinn/point_cloud.hpp"
#include "pinn/thermal.hpp"
#include "pinn/trainer.hpp"
#include "pinn/validation.hpp"
#include "samplers/mis.hpp"
#include "samplers/uniform.hpp"

namespace {

using sgm::nn::Mlp;
using sgm::nn::MlpConfig;

Mlp make_net(std::size_t in, std::size_t out, std::uint64_t seed,
             std::size_t width = 24, std::size_t depth = 3) {
  MlpConfig cfg;
  cfg.input_dim = in;
  cfg.output_dim = out;
  cfg.width = width;
  cfg.depth = depth;
  sgm::util::Rng rng(seed);
  return Mlp(cfg, rng);
}

sgm::pinn::TrainerOptions fast_trainer(std::uint64_t iters) {
  sgm::pinn::TrainerOptions opt;
  opt.batch_size = 96;
  opt.max_iterations = iters;
  opt.learning_rate = 2e-3;
  opt.validate_every = iters / 4;
  opt.seed = 3;
  return opt;
}

TEST(Integration, PoissonUniformTrainsToLowError) {
  sgm::pinn::PoissonProblem::Options popt;
  popt.interior_points = 2048;
  sgm::pinn::PoissonProblem problem(popt);
  Mlp net = make_net(2, 1, 11);
  sgm::samplers::UniformSampler sampler(2048);
  sgm::pinn::Trainer trainer(problem, net, sampler, fast_trainer(800));
  auto history = trainer.run();
  ASSERT_FALSE(history.records.empty());
  const double first =
      sgm::pinn::validation_error(history.records.front().validation, "u");
  const double best = history.best_error("u");
  EXPECT_LT(best, 0.3);
  EXPECT_LT(best, first);  // training reduced the error
  EXPECT_EQ(history.sampler_name, "uniform");
}

TEST(Integration, PoissonSgmTrainsAndRefreshes) {
  sgm::pinn::PoissonProblem::Options popt;
  popt.interior_points = 2048;
  sgm::pinn::PoissonProblem problem(popt);
  Mlp net = make_net(2, 1, 11);
  sgm::core::SgmOptions sopt;
  sopt.pgm.knn.k = 8;
  sopt.lrd.levels = 5;
  sopt.tau_e = 200;
  sopt.tau_g = 0;
  sopt.epoch.epoch_fraction = 0.25;
  sgm::core::SgmSampler sampler(problem.interior_points(), sopt);
  sgm::pinn::Trainer trainer(problem, net, sampler, fast_trainer(800));
  auto history = trainer.run();
  EXPECT_LT(history.best_error("u"), 0.3);
  EXPECT_GT(history.sampler_loss_evaluations, 0u);
  EXPECT_GT(history.sampler_refresh_s, 0.0);
  EXPECT_EQ(history.sampler_name, "sgm");
}

TEST(Integration, PoissonMisTrains) {
  sgm::pinn::PoissonProblem::Options popt;
  popt.interior_points = 2048;
  sgm::pinn::PoissonProblem problem(popt);
  Mlp net = make_net(2, 1, 11);
  sgm::samplers::MisOptions mopt;
  mopt.refresh_every = 200;
  mopt.num_seeds = 256;
  sgm::samplers::MisSampler sampler(problem.interior_points(), mopt);
  sgm::pinn::Trainer trainer(problem, net, sampler, fast_trainer(800));
  auto history = trainer.run();
  EXPECT_LT(history.best_error("u"), 0.35);
  EXPECT_GT(history.sampler_loss_evaluations, 0u);
}

TEST(Integration, TrainerRejectsZeroBatchSizeAndValidateEvery) {
  sgm::pinn::PoissonProblem::Options popt;
  popt.interior_points = 256;
  sgm::pinn::PoissonProblem problem(popt);
  Mlp net = make_net(2, 1, 5, 8, 2);
  sgm::samplers::UniformSampler sampler(256);
  auto expect_rejected = [&](const sgm::pinn::TrainerOptions& topt,
                             const std::string& field) {
    try {
      sgm::pinn::Trainer trainer(problem, net, sampler, topt);
      ADD_FAILURE() << field << " = 0 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  auto topt = fast_trainer(5);
  topt.validate_every = 0;  // Trainer::run takes it % validate_every
  expect_rejected(topt, "validate_every");
  topt = fast_trainer(5);
  topt.batch_size = 0;
  expect_rejected(topt, "batch_size");
}

TEST(Integration, TrainerWallBudgetStopsEarly) {
  sgm::pinn::PoissonProblem::Options popt;
  popt.interior_points = 1024;
  sgm::pinn::PoissonProblem problem(popt);
  Mlp net = make_net(2, 1, 5);
  sgm::samplers::UniformSampler sampler(1024);
  auto topt = fast_trainer(100000);  // would run forever without the budget
  topt.wall_time_budget_s = 0.5;
  sgm::pinn::Trainer trainer(problem, net, sampler, topt);
  auto history = trainer.run();
  EXPECT_LT(history.total_train_wall_s, 3.0);
  EXPECT_LT(history.records.back().iteration, 100000u);
}

TEST(Integration, TrainerTelemetryCsvWritten) {
  const std::string path = "/tmp/sgm_telemetry_test.csv";
  sgm::pinn::PoissonProblem::Options popt;
  popt.interior_points = 512;
  sgm::pinn::PoissonProblem problem(popt);
  Mlp net = make_net(2, 1, 6, 12, 2);
  sgm::samplers::UniformSampler sampler(512);
  auto topt = fast_trainer(40);
  topt.validate_every = 10;
  topt.telemetry_csv = path;
  sgm::pinn::Trainer trainer(problem, net, sampler, topt);
  auto history = trainer.run();
  EXPECT_EQ(history.records.size(), 4u);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
  EXPECT_EQ(std::string(line), "iteration,train_wall_s,mean_loss,err_u\n");
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(Integration, LdcSmokeTrainReducesResidual) {
  // A short LDC run (no reference data): PDE loss must drop markedly.
  sgm::pinn::LdcProblem::Options lopt;
  lopt.interior_points = 1024;
  lopt.boundary_points = 256;
  lopt.reynolds = 100;
  sgm::pinn::LdcProblem problem(lopt, nullptr);
  Mlp net = make_net(2, 3, 21);
  sgm::core::SgmOptions sopt;
  sopt.pgm.knn.k = 8;
  sopt.lrd.levels = 5;
  sopt.tau_e = 100;
  sopt.tau_g = 0;
  sgm::core::SgmSampler sampler(problem.interior_points(), sopt);
  auto topt = fast_trainer(400);
  topt.validate_every = 100;
  sgm::pinn::Trainer trainer(problem, net, sampler, topt);
  auto history = trainer.run();
  ASSERT_GE(history.records.size(), 2u);
  EXPECT_LT(history.records.back().mean_loss,
            history.records.front().mean_loss);
}

TEST(Integration, AnnularParamSmokeTrains) {
  sgm::pinn::AnnularProblem::Options aopt;
  aopt.interior_points = 1024;
  aopt.boundary_points = 256;
  sgm::pinn::AnnularProblem problem(aopt);
  Mlp net = make_net(3, 3, 31);
  sgm::core::SgmOptions sopt;
  sopt.pgm.knn.k = 7;   // the paper's AR hyperparameters
  sopt.lrd.levels = 6;
  sopt.tau_e = 100;
  sopt.tau_g = 0;
  sopt.use_isr = true;
  sopt.isr.rank = 4;
  sopt.isr.subspace_iterations = 3;
  sgm::core::SgmSampler sampler(problem.interior_points(), sopt);
  auto topt = fast_trainer(400);
  topt.validate_every = 100;
  sgm::pinn::Trainer trainer(problem, net, sampler, topt);
  auto history = trainer.run();
  EXPECT_LT(history.records.back().mean_loss,
            history.records.front().mean_loss);
  EXPECT_EQ(history.sampler_name, "sgm-s");
  // Validation produced all three paper metrics.
  const auto& val = history.records.back().validation;
  EXPECT_EQ(val.size(), 3u);
}

TEST(Integration, IdenticalSeedsReproduceExactly) {
  sgm::pinn::PoissonProblem::Options popt;
  popt.interior_points = 512;
  sgm::pinn::PoissonProblem problem(popt);
  auto run_once = [&] {
    Mlp net = make_net(2, 1, 17, 12, 2);
    sgm::samplers::UniformSampler sampler(512);
    auto topt = fast_trainer(60);
    topt.validate_every = 30;
    sgm::pinn::Trainer trainer(problem, net, sampler, topt);
    return trainer.run().records.back().mean_loss;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Integration, TrainerHistoryDeterministicWithSgmRebuilds) {
  sgm::pinn::PoissonProblem::Options popt;
  popt.interior_points = 1024;
  sgm::pinn::PoissonProblem problem(popt);
  auto run_once = [&] {
    Mlp net = make_net(2, 1, 19, 16, 2);
    sgm::core::SgmOptions sopt;
    sopt.pgm.knn.k = 6;
    sopt.lrd.levels = 4;
    sopt.tau_e = 60;
    sopt.tau_g = 100;  // two synchronous S1/S2 rebuilds inside the run
    sgm::core::SgmSampler sampler(problem.interior_points(), sopt);
    auto topt = fast_trainer(240);
    topt.validate_every = 60;
    sgm::pinn::Trainer trainer(problem, net, sampler, topt);
    return trainer.run();
  };
  sgm::pinn::testutil::expect_identical_histories(run_once(), run_once(),
                                                  "sgm sync rebuilds");
}

TEST(Integration, TrainerHistoryDeterministicWithOutputWeightedRebuilds) {
  // Output-weighted rebuilds fold the live network's outputs over every
  // point into the PGM metric at each tau_G boundary. The provider runs on
  // the training thread at a fixed iteration, so same-seed histories are
  // identical, repeated and at 1 vs 4 threads.
  sgm::pinn::PoissonProblem::Options popt;
  popt.interior_points = 512;
  sgm::pinn::PoissonProblem problem(popt);
  auto run_once = [&](std::size_t threads) {
    Mlp net = make_net(2, 1, 23, 16, 2);
    sgm::core::SgmOptions sopt;
    sopt.pgm.knn.k = 6;
    sopt.lrd.levels = 4;
    sopt.tau_e = 150;  // scores refresh at 0, 150, 300
    sopt.tau_g = 110;  // rebuilds at 110, 220, 330, 440
    sopt.rebuild_output_weight = 0.5;
    sopt.num_threads = threads;
    sgm::core::SgmSampler sampler(problem.interior_points(), sopt);
    sampler.set_outputs_provider([&](const std::vector<std::uint32_t>& rows) {
      return net.forward(sgm::pinn::gather_rows(problem.interior_points(),
                                                rows));
    });
    auto topt = fast_trainer(450);
    topt.validate_every = 150;
    topt.num_threads = threads;
    sgm::pinn::Trainer trainer(problem, net, sampler, topt);
    auto history = trainer.run();
    EXPECT_EQ(sampler.rebuild_count(), 4u);
    return history;
  };
  const auto h1 = run_once(1);
  sgm::pinn::testutil::expect_identical_histories(
      h1, run_once(1), "sgm output-weighted rebuilds, repeated");
  sgm::pinn::testutil::expect_identical_histories(
      h1, run_once(4), "sgm output-weighted rebuilds, 1 vs 4 threads");
}

// Telemetry round-trip: the CSV must parse back into exactly the recorded
// history — same column layout, bitwise-equal values (format_double writes
// %.17g so doubles survive the text round trip).
TEST(Integration, TelemetryCsvRoundTripsAgainstHistory) {
  const std::string path = "/tmp/sgm_telemetry_roundtrip.csv";
  sgm::pinn::ChipThermalProblem::Options copt;
  copt.interior_points = 512;
  copt.boundary_points = 128;
  copt.reference_grid = 33;
  sgm::pinn::ChipThermalProblem problem(copt);  // two validation metrics
  Mlp net = make_net(2, 1, 6, 12, 2);
  sgm::samplers::UniformSampler sampler(512);
  auto topt = fast_trainer(40);
  topt.validate_every = 10;
  topt.telemetry_csv = path;
  sgm::pinn::Trainer trainer(problem, net, sampler, topt);
  const auto history = trainer.run();
  ASSERT_EQ(history.records.size(), 4u);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  std::string expected_header = "iteration,train_wall_s,mean_loss";
  for (const auto& e : history.records.front().validation)
    expected_header += ",err_" + e.name;
  EXPECT_EQ(line, expected_header);

  for (const auto& rec : history.records) {
    ASSERT_TRUE(static_cast<bool>(std::getline(in, line))) << "missing row";
    std::vector<double> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ','))
      cells.push_back(std::strtod(cell.c_str(), nullptr));
    ASSERT_EQ(cells.size(), 3 + rec.validation.size());
    EXPECT_EQ(cells[0], static_cast<double>(rec.iteration));
    EXPECT_EQ(cells[1], rec.train_wall_s);
    EXPECT_EQ(cells[2], rec.mean_loss);
    for (std::size_t m = 0; m < rec.validation.size(); ++m)
      EXPECT_EQ(cells[3 + m], rec.validation[m].error)
          << "metric " << rec.validation[m].name;
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(in, line)));  // no extra rows
  std::remove(path.c_str());
}

}  // namespace
