// Unit tests for sgm::util — RNG statistics/determinism, timers, CSV.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using sgm::util::Rng;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(8);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, UniformIndexCoversAndBounded) {
  Rng rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIndexZeroThrows) {
  Rng rng(10);
  // (0 - n) % n with n == 0 would be UB; must refuse instead.
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(11);
  for (std::uint32_t n : {5u, 50u, 1000u}) {
    for (std::uint32_t k : {1u, 3u, n / 2, n}) {
      auto s = rng.sample_without_replacement(n, k);
      EXPECT_EQ(s.size(), k);
      std::set<std::uint32_t> uniq(s.begin(), s.end());
      EXPECT_EQ(uniq.size(), k);
      for (auto v : s) EXPECT_LT(v, n);
    }
  }
}

TEST(Rng, SampleWithoutReplacementClampsOverdraw) {
  Rng rng(12);
  auto s = rng.sample_without_replacement(4, 10);
  EXPECT_EQ(s.size(), 4u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<std::uint32_t> v(100);
  for (std::uint32_t i = 0; i < 100; ++i) v[i] = i;
  rng.shuffle(v);
  std::set<std::uint32_t> uniq(v.begin(), v.end());
  EXPECT_EQ(uniq.size(), 100u);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng parent(5);
  Rng child = parent.split();
  // The child stream should not replay the parent stream.
  Rng parent2(5);
  (void)parent2.next_u64();  // advance like split() did internally
  int same = 0;
  for (int i = 0; i < 32; ++i)
    if (child.next_u64() == parent2.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(WallTimer, Monotonic) {
  sgm::util::WallTimer t;
  const double a = t.elapsed_s();
  const double b = t.elapsed_s();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = "/tmp/sgm_test_csv.csv";
  {
    sgm::util::CsvWriter csv(path, {"a", "b"});
    csv.row({1.5, 2.25});
    csv.row_strings({"x", "y"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2.25");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsWrongWidth) {
  sgm::util::CsvWriter csv("/tmp/sgm_test_csv2.csv", {"a", "b"});
  EXPECT_THROW(csv.row({1.0}), std::runtime_error);
  std::remove("/tmp/sgm_test_csv2.csv");
}

TEST(FormatDouble, RoundTripsCompactly) {
  EXPECT_EQ(sgm::util::format_double(0.5), "0.5");
  EXPECT_EQ(sgm::util::format_double(3.0), "3");
}

TEST(FormatDouble, RoundTripsEveryDoubleExactly) {
  // The telemetry CSV contract: strtod(format_double(v)) == v bitwise.
  // (%.9g, the old format, fails this for most non-dyadic values.)
  sgm::util::Rng rng(7);
  std::vector<double> values = {1.0 / 3.0, 0.1, 2.0 / 7.0, 1e-300, 1e300,
                                -0.12345678901234567};
  for (int i = 0; i < 1000; ++i)
    values.push_back((rng.uniform() - 0.5) * std::pow(10.0, rng.uniform(-12, 12)));
  for (const double v : values) {
    const std::string s = sgm::util::format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(Log, LevelGateWorks) {
  using namespace sgm::util;
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  log_info() << "should be suppressed";
  set_log_level(LogLevel::kWarn);
}

}  // namespace
