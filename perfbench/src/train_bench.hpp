#pragma once
// Training workloads: time to a target accuracy with the registered
// scenario configuration, as `run_scenario` users get it.

#include <cstdint>
#include <string>
#include <vector>

#include "pinn/scenario.hpp"
#include "pinn/trainer.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/// Where one training operation ends.
enum class OpEnd {
  kTarget,    ///< at the first validation at or below the target
  kBudget,    ///< at the end of the budget; the target is the check
};

/// One training workload. Everything except the iteration budget and the
/// validation interval is the scenario's registered kFull configuration at
/// library-default thread counts.
struct TrainSpec {
  const char* workload;
  const char* scenario;
  const char* metric;  ///< validation metric the target is on
  double target;       ///< relative-L2 error every training must reach
  std::uint64_t budget;          ///< iterations per training
  std::uint64_t validate_every;
  std::size_t replicas;          ///< trainings per run, each its own seed
  OpEnd ends_at;
};

const TrainSpec* find_train_spec(const std::string& workload);

/// One training of a replica: the scenario's trainer/SGM options with the
/// spec's budget and validation interval, seeded from `replica_seed`.
struct ReplicaOutcome {
  bool ok = false;       ///< trained without throwing and reached the target
  std::string why;       ///< why not ok
  double setup_s = 0.0;  ///< network init + sampler construction
  double tta_s = 0.0;    ///< train wall to the first validation <= target
  double latency_s = 0.0;  ///< tta_s or train_wall_s, per TrainSpec::ends_at
  double best_err = 0.0;
  double train_wall_s = 0.0;
  double train_cpu_s = 0.0;  ///< process CPU in Trainer::run, validation excluded
  double op_cpu_s = 0.0;     ///< train_cpu_s up to the operation's end
  std::uint64_t iterations = 0;
  sgm::pinn::TrainHistory history;
};

/// Trains one replica. With a tracer, the problem and the sampler are
/// wrapped by timing decorators (spans only; the arithmetic is untouched)
/// and the SGM stages are replayed after training; the replayed costs land
/// in `layers`.
ReplicaOutcome train_replica(const sgm::pinn::ScenarioConfig& cfg,
                             const TrainSpec& spec, std::uint64_t replica_seed,
                             Tracer* tracer = nullptr,
                             Result* layers = nullptr);

/// Folds replica outcomes into the end-to-end metrics (medians over
/// replicas; a failed replica's operation never ends: +inf).
void fold_replicas(const std::vector<ReplicaOutcome>& replicas,
                   std::size_t batch_size, double scenario_build_s,
                   Result& result);

Result run_train(const TrainSpec& spec, const RunOptions& opt);

/// Bitwise comparison of two histories' iterations, losses and validation
/// errors (wall times differ by construction and are not compared).
bool same_trajectory(const sgm::pinn::TrainHistory& a, const sgm::pinn::TrainHistory& b);

}  // namespace perfbench
