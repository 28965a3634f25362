#pragma once
// Deterministic, seedable random number generation for the whole library.
//
// Every stochastic component in sgm-pinn (point-cloud generation, weight
// init, mini-batch selection, ER embeddings, ...) takes an explicit Rng so
// experiments are reproducible run-to-run and arm-to-arm; the benches average
// over seeds the same way the paper averages over 5 runs.

#include <cstdint>
#include <vector>

namespace sgm::util {

/// Complete serializable Rng state — capturing and restoring it resumes
/// the stream exactly (trainer snapshots / durable train checkpoints).
struct RngState {
  std::uint64_t s[4] = {0, 0, 0, 0};
  double spare_normal = 0.0;
  bool has_spare = false;
};

/// xoshiro256** — small, fast, high-quality PRNG (Blackman & Vigna).
/// Not cryptographic; plenty for Monte-Carlo sampling and initialization.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Throws std::invalid_argument when n == 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (cached spare value).
  double normal();

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);

  /// Fisher–Yates shuffle of an index vector.
  void shuffle(std::vector<std::uint32_t>& v);

  /// Sample `k` distinct indices from [0, n) (k <= n), ascending order not
  /// guaranteed. Uses Floyd's algorithm for k << n, shuffle otherwise.
  std::vector<std::uint32_t> sample_without_replacement(std::uint32_t n,
                                                        std::uint32_t k);

  /// Derive an independent child stream (for per-thread / per-component use).
  Rng split();

  /// Snapshot / restore the full generator state (byte-exact resume).
  RngState state() const;
  void set_state(const RngState& st);

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace sgm::util
