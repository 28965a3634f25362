// Regression tests for the tau_e / tau_G cadence of core::RefreshScheduler
// (Algorithm 1's outer loop). Pins down the boundary semantics the sampler
// relies on: scoring fires on the very first call (iteration 0 included),
// rebuilds never fire at iteration 0, and both respect their periods even
// when the trainer skips iterations.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/refresh_scheduler.hpp"

namespace {

using sgm::core::RefreshScheduler;

TEST(RefreshScheduler, ScoreFiresAtIterationZeroThenEveryTauE) {
  RefreshScheduler sched(/*tau_e=*/3, /*tau_g=*/100);
  std::vector<std::uint64_t> fired;
  for (std::uint64_t it = 0; it <= 9; ++it)
    if (sched.should_score(it)) fired.push_back(it);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{0, 3, 6, 9}));
}

TEST(RefreshScheduler, ScoreFirstCallFiresEvenAtNonzeroIteration) {
  RefreshScheduler sched(/*tau_e=*/5, /*tau_g=*/100);
  EXPECT_TRUE(sched.should_score(7));
  EXPECT_FALSE(sched.should_score(8));
  EXPECT_FALSE(sched.should_score(11));
  EXPECT_TRUE(sched.should_score(12));  // 7 + tau_e
}

TEST(RefreshScheduler, RebuildDoesNotFireAtIterationZero) {
  // The initial PGM/LRD build happens at sampler construction, so the
  // scheduler must not request another one at iteration 0.
  RefreshScheduler sched(/*tau_e=*/1, /*tau_g=*/4);
  EXPECT_FALSE(sched.should_rebuild(0));
}

TEST(RefreshScheduler, RebuildFiresEveryTauGAfterWarmup) {
  RefreshScheduler sched(/*tau_e=*/1, /*tau_g=*/4);
  std::vector<std::uint64_t> fired;
  for (std::uint64_t it = 0; it <= 12; ++it)
    if (sched.should_rebuild(it)) fired.push_back(it);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{4, 8, 12}));
}

TEST(RefreshScheduler, RebuildDisabledWhenTauGZero) {
  RefreshScheduler sched(/*tau_e=*/1, /*tau_g=*/0);
  for (std::uint64_t it = 0; it <= 100; ++it)
    EXPECT_FALSE(sched.should_rebuild(it));
}

TEST(RefreshScheduler, BothHandleSkippedIterations) {
  // Callers are not required to poll every iteration; a late call still
  // fires once and re-anchors the period at the observed iteration.
  RefreshScheduler sched(/*tau_e=*/3, /*tau_g=*/4);
  EXPECT_TRUE(sched.should_score(0));
  EXPECT_TRUE(sched.should_score(10));
  EXPECT_FALSE(sched.should_score(12));
  EXPECT_TRUE(sched.should_score(13));

  EXPECT_TRUE(sched.should_rebuild(10));
  EXPECT_FALSE(sched.should_rebuild(13));
  EXPECT_TRUE(sched.should_rebuild(14));
}

TEST(RefreshScheduler, ExposesConfiguredPeriods) {
  RefreshScheduler sched(/*tau_e=*/7000, /*tau_g=*/25000);
  EXPECT_EQ(sched.tau_e(), 7000u);
  EXPECT_EQ(sched.tau_g(), 25000u);
}

}  // namespace
