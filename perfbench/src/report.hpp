#pragma once
// One benchmark run's outcome and the small measurement helpers every
// workload shares.
//
// The last line a run prints is Result::result_line(): exactly the keys
// `correct`, `attempted`, `failed` and `metrics`. The run facts (core count,
// resolved thread counts, compiler, build type, commit, seed, budget, target)
// and the notes of any failed check go to the line before it and into the
// run's JSON record, never into the result line.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One run as the command line asks for it.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< serving window; trainings run a fixed budget
  bool trace = false;
  std::string out_dir;  ///< traces, run records and temporary files go here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< in print order
  /// name -> already-rendered JSON value.
  std::vector<std::pair<std::string, std::string>> facts;
  std::vector<std::string> notes;  ///< why a check failed

  void metric(const std::string& name, double value, const std::string& unit);
  /// Value of a metric already recorded (throws std::out_of_range if absent).
  double get(const std::string& name) const;
  void fact(const std::string& name, const std::string& text);
  void fact(const std::string& name, double value);
  /// Marks the run incorrect and records why.
  void fail_check(const std::string& why);

  /// The run's final line. A non-finite value (every operation
  /// failed, so the median is "infinitely late") prints as 1e300 and the
  /// run is then already marked incorrect.
  std::string result_line() const;
  /// Facts, notes and metrics as one JSON object (the run record).
  std::string record_json() const;
};

/// Shortest text that parses back to exactly `v` (non-finite -> 1e300).
std::string json_number(double v);
std::string json_string(const std::string& s);

/// Median of `v` (NaN when empty); +inf entries count as infinitely late.
double median(std::vector<double> v);

/// User+system CPU seconds of the whole process.
double process_cpu_s();
/// User+system CPU seconds of the calling thread.
double thread_cpu_s();
/// Process high-water resident set size, MiB.
double peak_rss_mb();

/// Independent 64-bit stream `stream` of the workload seed (splitmix64), so
/// every consumer of the seed draws from its own sequence.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
