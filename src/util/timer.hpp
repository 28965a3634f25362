#pragma once
// Wall-clock timing used by the trainer telemetry and the benches.

#include <chrono>

namespace sgm::util {

/// Monotonic stopwatch. `elapsed_s()` never goes backwards.
class WallTimer {
 public:
  WallTimer() { reset(); }

  void reset() { start_ = clock::now(); }

  /// Seconds since construction or last reset().
  double elapsed_s() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double elapsed_ms() const { return elapsed_s() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace sgm::util
