#pragma once
// tau_e / tau_G scheduling (Algorithm 1's outer loop): scores refresh every
// tau_e iterations, the graph + clustering rebuild every tau_G iterations.
// Kept as its own small class so the schedule semantics are testable apart
// from the sampler.

#include <cstdint>

namespace sgm::core {

class RefreshScheduler {
 public:
  RefreshScheduler(std::uint64_t tau_e, std::uint64_t tau_g)
      : tau_e_(tau_e), tau_g_(tau_g) {}

  /// True when the score/epoch refresh (lines 5-10) should run at
  /// `iteration`. Fires at iteration 0 and every tau_e thereafter.
  bool should_score(std::uint64_t iteration) {
    if (scored_ && iteration - last_score_ < tau_e_) return false;
    scored_ = true;
    last_score_ = iteration;
    return true;
  }

  /// True when the PGM + LRD rebuild (lines 14-18) should run. Does not
  /// fire at iteration 0 (the initial build happens at construction).
  bool should_rebuild(std::uint64_t iteration) {
    if (tau_g_ == 0) return false;
    if (iteration == 0 || iteration - last_rebuild_ < tau_g_) return false;
    last_rebuild_ = iteration;
    return true;
  }

  std::uint64_t tau_e() const { return tau_e_; }
  std::uint64_t tau_g() const { return tau_g_; }

 private:
  std::uint64_t tau_e_;
  std::uint64_t tau_g_;
  std::uint64_t last_score_ = 0;
  std::uint64_t last_rebuild_ = 0;
  bool scored_ = false;
};

}  // namespace sgm::core
