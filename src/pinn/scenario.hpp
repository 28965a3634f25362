#pragma once
// Scenario registry — the catalogue of end-to-end PINN workloads.
//
// A *scenario* bundles everything needed to train and judge one problem:
// the PinnProblem instance, a recommended network, recommended trainer and
// SGM-sampler options, and per-metric convergence envelopes. Scenarios are
// constructed through a factory registry keyed by name, so examples, benches
// and the tier-2 regression harness all iterate the same catalogue — adding
// a problem here automatically adds it to `run_scenario`, `bench_scenarios`
// and `ctest -L tier2`.
//
// Two scales per scenario:
//  * kSmoke — small clouds / short budgets sized for the tier-2 ctest
//             harness; the envelopes are calibrated at this scale and must
//             hold under BOTH uniform and SGM sampling;
//  * kFull  — the example/bench scale (the sizes the per-problem examples
//             used to hard-code).
//
// Registering a new scenario:
//   ScenarioRegistry::instance().add("my_problem", [](ScenarioScale s) {
//     ScenarioConfig cfg; ... return cfg; });
// Names must be unique; the built-in six are registered on first access.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sgm_sampler.hpp"
#include "nn/mlp.hpp"
#include "pinn/pde.hpp"
#include "pinn/trainer.hpp"

namespace sgm::pinn {

/// Convergence bound: best_error(metric) <= max_error after the scenario's
/// recommended smoke budget (under uniform AND SGM sampling).
struct MetricEnvelope {
  std::string metric;
  double max_error = 0.0;
};

enum class ScenarioScale { kSmoke, kFull };

struct ScenarioConfig {
  std::string name;
  std::string description;
  std::shared_ptr<PinnProblem> problem;
  nn::MlpConfig net;                 ///< recommended network (with encoding)
  std::uint64_t net_seed = 7;        ///< weight-init seed
  TrainerOptions trainer;            ///< recommended loop options
  core::SgmOptions sgm;              ///< recommended SGM sampler options
  std::vector<MetricEnvelope> envelopes;  ///< calibrated at kSmoke
};

using ScenarioFactory = std::function<ScenarioConfig(ScenarioScale)>;

class ScenarioRegistry {
 public:
  /// The process-wide registry with the built-in scenarios pre-registered.
  static ScenarioRegistry& instance();

  /// Registers a factory under `name`; throws std::invalid_argument on a
  /// duplicate name.
  void add(const std::string& name, ScenarioFactory factory);

  bool contains(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// Constructs the scenario; throws std::out_of_range for unknown names
  /// (the message lists what is registered).
  ScenarioConfig make(const std::string& name, ScenarioScale scale) const;

 private:
  std::map<std::string, ScenarioFactory> factories_;
};

}  // namespace sgm::pinn
