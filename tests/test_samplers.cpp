// Tests for the baseline samplers: alias tables, epoch dealing, uniform and
// MIS (loss-proportional) — plus the cross-sampler batch contract (exactly
// batch_size in-range rows) and the PGM-edge exclusion property.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "core/pgm.hpp"
#include "core/sgm_sampler.hpp"
#include "samplers/mis.hpp"
#include "samplers/sampler.hpp"
#include "samplers/uniform.hpp"
#include "util/rng.hpp"

namespace {

using sgm::samplers::AliasTable;
using sgm::samplers::EpochDealer;
using sgm::tensor::Matrix;

TEST(AliasTable, MatchesNormalizedProbabilities) {
  AliasTable t({1.0, 3.0, 6.0});
  EXPECT_NEAR(t.probability(0), 0.1, 1e-12);
  EXPECT_NEAR(t.probability(1), 0.3, 1e-12);
  EXPECT_NEAR(t.probability(2), 0.6, 1e-12);
}

TEST(AliasTable, EmpiricalFrequenciesConverge) {
  AliasTable t({2.0, 1.0, 1.0, 4.0});
  sgm::util::Rng rng(1);
  std::map<std::uint32_t, int> count;
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++count[t.sample(rng)];
  EXPECT_NEAR(count[0] / double(n), 0.25, 0.01);
  EXPECT_NEAR(count[3] / double(n), 0.50, 0.01);
}

TEST(AliasTable, RejectsInvalidWeights) {
  EXPECT_THROW(AliasTable({}), std::invalid_argument);
  EXPECT_THROW(AliasTable({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasTable({1.0, -1.0}), std::invalid_argument);
}

TEST(AliasTable, HandlesZeroWeightEntries) {
  AliasTable t({0.0, 1.0, 0.0});
  sgm::util::Rng rng(2);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(t.sample(rng), 1u);
}

TEST(EpochDealer, FullUniverseEachEpoch) {
  EpochDealer d(10);
  sgm::util::Rng rng(3);
  std::map<std::uint32_t, int> count;
  // Two complete epochs of 10 in batches of 5.
  for (int b = 0; b < 4; ++b)
    for (auto i : d.next(5, rng)) ++count[i];
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(count[i], 2);
}

TEST(EpochDealer, SetEpochUsesGivenMultiset) {
  EpochDealer d(100);
  sgm::util::Rng rng(4);
  d.set_epoch({7, 7, 9}, rng);
  std::map<std::uint32_t, int> count;
  for (auto i : d.next(6, rng)) ++count[i];  // exactly two epochs
  EXPECT_EQ(count[7], 4);
  EXPECT_EQ(count[9], 2);
  EXPECT_EQ(count.size(), 2u);
}

TEST(EpochDealer, RejectsEmptyEpoch) {
  EpochDealer d(4);
  sgm::util::Rng rng(5);
  EXPECT_THROW(d.set_epoch({}, rng), std::invalid_argument);
}

TEST(UniformSampler, CoversUniverse) {
  sgm::samplers::UniformSampler s(16);
  sgm::util::Rng rng(6);
  std::map<std::uint32_t, int> count;
  for (int b = 0; b < 4; ++b)
    for (auto i : s.next_batch(8, rng)) ++count[i];
  EXPECT_EQ(count.size(), 16u);  // two epochs touch everything
}

// ----------------------------------------------------------------- MIS ----

Matrix line_points(std::size_t n) {
  Matrix pts(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    pts(i, 0) = static_cast<double>(i) / n;
    pts(i, 1) = 0.0;
  }
  return pts;
}

TEST(MisSampler, UniformBeforeFirstRefresh) {
  const Matrix pts = line_points(50);
  sgm::samplers::MisOptions opt;
  sgm::samplers::MisSampler s(pts, opt);
  EXPECT_NEAR(s.probability(3), 1.0 / 50, 1e-12);
}

TEST(MisSampler, ProbabilityTracksLoss) {
  const Matrix pts = line_points(100);
  sgm::samplers::MisOptions opt;
  opt.refresh_every = 1;
  opt.uniform_floor = 0.0;
  sgm::samplers::MisSampler s(pts, opt);
  sgm::util::Rng rng(7);
  // Loss = 9 for the first half, 1 for the second.
  auto eval = [](const std::vector<std::uint32_t>& rows) {
    std::vector<double> loss(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
      loss[i] = rows[i] < 50 ? 9.0 : 1.0;
    return loss;
  };
  s.maybe_refresh(0, eval, rng);
  EXPECT_NEAR(s.probability(10) / s.probability(90), 9.0, 1e-9);
}

TEST(MisSampler, SeededModeAssignsNearestSeedLoss) {
  const Matrix pts = line_points(100);
  sgm::samplers::MisOptions opt;
  opt.refresh_every = 1;
  opt.num_seeds = 10;
  opt.uniform_floor = 0.0;
  sgm::samplers::MisSampler s(pts, opt);
  sgm::util::Rng rng(8);
  std::size_t evaluated = 0;
  auto eval = [&](const std::vector<std::uint32_t>& rows) {
    evaluated = rows.size();
    std::vector<double> loss(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
      loss[i] = rows[i] < 50 ? 5.0 : 1.0;
    return loss;
  };
  s.maybe_refresh(0, eval, rng);
  EXPECT_EQ(evaluated, 10u);  // seeds only, not the full cloud
  EXPECT_EQ(s.loss_evaluations(), 10u);
  // Points deep in each half should inherit their half's seed loss.
  EXPECT_GT(s.probability(5), s.probability(95));
}

TEST(MisSampler, RespectsRefreshPeriod) {
  const Matrix pts = line_points(20);
  sgm::samplers::MisOptions opt;
  opt.refresh_every = 100;
  sgm::samplers::MisSampler s(pts, opt);
  sgm::util::Rng rng(9);
  int calls = 0;
  auto eval = [&](const std::vector<std::uint32_t>& rows) {
    ++calls;
    return std::vector<double>(rows.size(), 1.0);
  };
  for (std::uint64_t it = 0; it < 250; ++it) s.maybe_refresh(it, eval, rng);
  EXPECT_EQ(calls, 3);  // at 0, 100, 200
}

TEST(MisSampler, UniformFloorKeepsAllReachable) {
  const Matrix pts = line_points(10);
  sgm::samplers::MisOptions opt;
  opt.refresh_every = 1;
  opt.uniform_floor = 0.1;
  sgm::samplers::MisSampler s(pts, opt);
  sgm::util::Rng rng(10);
  auto eval = [](const std::vector<std::uint32_t>& rows) {
    std::vector<double> loss(rows.size(), 0.0);
    loss[0] = 100.0;  // all mass on one point without the floor
    return loss;
  };
  s.maybe_refresh(0, eval, rng);
  for (std::uint32_t i = 0; i < 10; ++i)
    EXPECT_GE(s.probability(i), 0.1 / 10 - 1e-12);
}

// ----------------------------------------------- cross-sampler contract ----

// Every Sampler must hand the trainer exactly `batch_size` rows, each a
// valid index into the point universe — for every batch size, including
// ones larger than the universe (epoch dealers wrap, weighted samplers draw
// with replacement).
void check_batch_contract(sgm::samplers::Sampler& s, std::uint32_t n,
                          sgm::util::Rng& rng) {
  for (const std::size_t batch_size : {1u, 7u, 64u, n, n + 13u}) {
    for (int rep = 0; rep < 5; ++rep) {
      const auto batch = s.next_batch(batch_size, rng);
      ASSERT_EQ(batch.size(), batch_size) << s.name();
      for (const auto i : batch) ASSERT_LT(i, n) << s.name();
    }
  }
}

sgm::tensor::Matrix cloud2d(std::uint32_t n, std::uint64_t seed) {
  sgm::util::Rng rng(seed);
  sgm::tensor::Matrix pts(n, 2);
  for (std::size_t i = 0; i < pts.size(); ++i) pts.data()[i] = rng.uniform();
  return pts;
}

TEST(SamplerContract, EverySamplerReturnsExactlyBatchSizeInRangeRows) {
  const std::uint32_t n = 200;
  const sgm::tensor::Matrix pts = cloud2d(n, 21);
  sgm::util::Rng rng(22);
  auto eval = [](const std::vector<std::uint32_t>& rows) {
    std::vector<double> loss(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) loss[i] = 1.0 + rows[i];
    return loss;
  };

  sgm::samplers::UniformSampler uniform(n);
  check_batch_contract(uniform, n, rng);

  sgm::samplers::MisOptions mopt;
  mopt.refresh_every = 1;
  sgm::samplers::MisSampler mis(pts, mopt);
  check_batch_contract(mis, n, rng);  // pre-refresh (uniform path)
  mis.maybe_refresh(0, eval, rng);
  check_batch_contract(mis, n, rng);  // post-refresh (alias path)

  sgm::core::SgmOptions sopt;
  sopt.pgm.knn.k = 6;
  sopt.lrd.levels = 4;
  sopt.tau_e = 1;
  sopt.tau_g = 0;
  sgm::core::SgmSampler sgm_sampler(pts, sopt);
  check_batch_contract(sgm_sampler, n, rng);  // initial full-universe epoch
  sgm_sampler.maybe_refresh(0, eval, rng);
  check_batch_contract(sgm_sampler, n, rng);  // SGM epoch
}

// ------------------------------------------------- MIS edge exclusion ----

TEST(MisSampler, ExclusionGraphBatchesNeverContainAPgmEdge) {
  const std::uint32_t n = 400;
  const sgm::tensor::Matrix pts = cloud2d(n, 31);
  sgm::core::PgmOptions gopt;
  gopt.knn.k = 6;
  const sgm::graph::CsrGraph pgm = sgm::core::build_pgm(pts, nullptr, gopt);

  sgm::samplers::MisOptions opt;
  opt.refresh_every = 1;
  opt.exclusion_graph = &pgm;
  sgm::samplers::MisSampler s(pts, opt);
  sgm::util::Rng rng(32);
  auto eval = [](const std::vector<std::uint32_t>& rows) {
    // Concentrated losses make kNN neighbors likely co-draws without the
    // exclusion; the property must hold anyway.
    std::vector<double> loss(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
      loss[i] = rows[i] < 40 ? 100.0 : 0.01;
    return loss;
  };

  auto check_independent = [&](const std::vector<std::uint32_t>& batch) {
    std::set<std::uint32_t> in_batch(batch.begin(), batch.end());
    ASSERT_EQ(in_batch.size(), batch.size()) << "duplicate row in batch";
    for (const auto u : batch)
      for (const auto v : pgm.neighbors(u))
        ASSERT_FALSE(in_batch.count(v))
            << "PGM edge (" << u << ", " << v << ") inside one batch";
  };

  for (int b = 0; b < 20; ++b) check_independent(s.next_batch(24, rng));
  s.maybe_refresh(0, eval, rng);
  for (int b = 0; b < 20; ++b) check_independent(s.next_batch(24, rng));
}

TEST(MisSampler, ExclusionGraphThrowsWhenNoIndependentBatchExists) {
  // K4: any two vertices are adjacent, so no independent batch of 2 exists.
  sgm::tensor::Matrix pts(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    pts(i, 0) = static_cast<double>(i);
    pts(i, 1) = 0.0;
  }
  const sgm::graph::CsrGraph k4 = sgm::graph::CsrGraph::from_edges(
      4, {{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}, {1, 2, 1.0}, {1, 3, 1.0},
          {2, 3, 1.0}});
  sgm::samplers::MisOptions opt;
  opt.exclusion_graph = &k4;
  sgm::samplers::MisSampler s(pts, opt);
  sgm::util::Rng rng(33);
  EXPECT_EQ(s.next_batch(1, rng).size(), 1u);
  EXPECT_THROW(s.next_batch(2, rng), std::runtime_error);
}

}  // namespace
