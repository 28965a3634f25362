#include "train_bench.hpp"

#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <optional>

#include "core/epoch_builder.hpp"
#include "core/pgm.hpp"
#include "core/scorer.hpp"
#include "core/sgm_sampler.hpp"
#include "graph/effective_resistance.hpp"
#include "graph/knn.hpp"
#include "graph/lrd.hpp"
#include "nn/optimizer.hpp"
#include "spade/isr.hpp"
#include "tensor/tape.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace sgm;

namespace {

const std::vector<TrainSpec>& train_specs() {
  // Each target equals the scenario's registered convergence envelope for
  // the metric, fixed here so a registry change cannot move the benchmark.
  // annular: every seed tried (16) crossed v <= 0.05 by iteration
  // 40, so the operation is training to it; validating every 4 iterations
  // keeps one interval under 5% of the time to it, and the 250-iteration
  // budget holds exactly one score refresh (S3 included), the registered
  // tau_e cadence.
  //
  // ldc: the u error is jumpy, and its first crossing of any target
  // varied 20-65% between seeds (16 seeds tried), more than a few
  // replicas can average out. The operation is the whole budget, which
  // includes one S1/S2 rebuild (tau_G = 900); u <= 0.9 is the accuracy
  // check (the weakest replica seen reached 0.60).
  static const std::vector<TrainSpec> specs = {
      {"train-ldc-sgm", "ldc_zeroeq", "u", 0.9, 1000, 50, 3, OpEnd::kBudget},
      {"train-annular-sgms", "annular_ring_param", "v", 0.05, 250, 4, 11,
       OpEnd::kTarget},
  };
  return specs;
}

/// Forwards every call to the scenario's problem. Always meters the CPU
/// spent in validate() (measurement-only work excluded from the training
/// CPU, as TrainHistory excludes it from train wall) and stamps the
/// training CPU at each validation; with a tracer it also records the
/// batch-loss, residual and validation spans.
class MeteredProblem final : public pinn::PinnProblem {
 public:
  MeteredProblem(const pinn::PinnProblem& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }
  const tensor::Matrix& interior_points() const override {
    return inner_.interior_points();
  }
  std::size_t input_dim() const override { return inner_.input_dim(); }
  std::size_t output_dim() const override { return inner_.output_dim(); }

  tensor::VarId batch_loss(tensor::Tape& tape, const nn::Mlp& net,
                           const nn::Mlp::Binding& binding,
                           const std::vector<std::uint32_t>& rows,
                           util::Rng& rng) const override {
    ScopedSpan span(tracer_, "pinn.batch_loss");
    return inner_.batch_loss(tape, net, binding, rows, rng);
  }

  std::vector<double> pointwise_residual(
      const nn::Mlp& net,
      const std::vector<std::uint32_t>& rows) const override {
    const double cpu0 = process_cpu_s();
    std::vector<double> r;
    {
      ScopedSpan span(tracer_, "pinn.residual");
      r = inner_.pointwise_residual(net, rows);
    }
    residual_cpu_s_ += process_cpu_s() - cpu0;
    residual_rows_ += rows.size();
    ++residual_calls_;
    return r;
  }

  std::vector<pinn::ValidationEntry> validate(
      const nn::Mlp& net) const override {
    const double cpu0 = process_cpu_s();
    train_cpu_at_validation_.push_back(cpu0 - start_cpu_ - validate_cpu_s_);
    std::vector<pinn::ValidationEntry> v;
    {
      ScopedSpan span(tracer_, "pinn.validate");
      v = inner_.validate(net);
    }
    validate_cpu_s_ += process_cpu_s() - cpu0;
    return v;
  }

  /// Starts the training-CPU clock (call right before Trainer::run).
  void start() { start_cpu_ = process_cpu_s(); }
  /// Process CPU since start(), validation excluded.
  double train_cpu_s() const {
    return process_cpu_s() - start_cpu_ - validate_cpu_s_;
  }
  /// train_cpu_s() at each validation, in history-record order.
  const std::vector<double>& train_cpu_at_validation() const {
    return train_cpu_at_validation_;
  }
  std::uint64_t residual_rows() const { return residual_rows_; }
  double residual_cpu_s() const { return residual_cpu_s_; }
  std::uint64_t residual_calls() const { return residual_calls_; }

 private:
  const pinn::PinnProblem& inner_;
  Tracer* tracer_;
  double start_cpu_ = 0.0;
  mutable double validate_cpu_s_ = 0.0;
  mutable std::vector<double> train_cpu_at_validation_;
  mutable std::uint64_t residual_rows_ = 0;
  mutable double residual_cpu_s_ = 0.0;
  mutable std::uint64_t residual_calls_ = 0;
};

/// Spans around the injected sampler's two hooks. refresh_seconds() and
/// loss_evaluations() are non-virtual, so callers read them from the
/// wrapped sampler, never from this decorator.
class TimedSampler final : public samplers::Sampler {
 public:
  TimedSampler(samplers::Sampler& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }

  std::vector<std::uint32_t> next_batch(std::size_t batch_size,
                                        util::Rng& rng) override {
    ScopedSpan span(&tracer_, "samplers.next_batch");
    return inner_.next_batch(batch_size, rng);
  }

  void maybe_refresh(std::uint64_t iteration,
                     const samplers::LossEvaluator& evaluate,
                     util::Rng& rng) override {
    entries_.push_back(tracer_.now());
    const double before = inner_.refresh_seconds();
    const double cpu0 = process_cpu_s();
    {
      ScopedSpan span(&tracer_, "samplers.refresh");
      inner_.maybe_refresh(iteration, evaluate, rng);
    }
    if (inner_.refresh_seconds() != before) {
      ++working_calls_;
      refresh_cpu_s_ += process_cpu_s() - cpu0;
    }
  }

  samplers::DealerState resume_state() const override {
    return inner_.resume_state();
  }
  void set_resume_state(const samplers::DealerState& state) override {
    inner_.set_resume_state(state);
  }

  /// Trace-clock time of every maybe_refresh entry (one per iteration).
  const std::vector<double>& entries() const { return entries_; }
  /// maybe_refresh calls that did refresh work (scored or rebuilt).
  std::uint64_t working_calls() const { return working_calls_; }
  /// Process CPU spent in those calls.
  double refresh_cpu_s() const { return refresh_cpu_s_; }

 private:
  samplers::Sampler& inner_;
  Tracer& tracer_;
  std::vector<double> entries_;
  std::uint64_t working_calls_ = 0;
  double refresh_cpu_s_ = 0.0;
};

double median_ms(const Tracer& tracer, const char* name) {
  return 1e3 * median(tracer.durations_s(name));
}

/// Runs `fn` inside a span named `name`; returns the process CPU it used.
template <class Fn>
double replay(Tracer& tracer, const char* name, Fn&& fn) {
  const double cpu0 = process_cpu_s();
  {
    ScopedSpan s(&tracer, name);
    fn();
  }
  return process_cpu_s() - cpu0;
}

/// Median per-iteration wall: consecutive maybe_refresh entries, with the
/// validation spans that fall between them removed.
double step_ms_p50(const Tracer& tracer, const std::vector<double>& entries) {
  std::vector<std::pair<double, double>> validations;
  for (const Span& s : tracer.spans())
    if (std::strcmp(s.name, "pinn.validate") == 0)
      validations.emplace_back(s.start_s, s.end_s);
  std::vector<double> steps;
  std::size_t v = 0;
  for (std::size_t i = 1; i < entries.size(); ++i) {
    double dt = entries[i] - entries[i - 1];
    while (v < validations.size() && validations[v].second <= entries[i]) {
      if (validations[v].first >= entries[i - 1])
        dt -= validations[v].second - validations[v].first;
      ++v;
    }
    steps.push_back(dt);
  }
  return 1e3 * median(steps);
}

/// Replays the sampler's stages and one training step through their public
/// free functions, on the trained network and the sampler's final
/// clustering, with the thread counts the sampler and trainer resolved.
/// Returns the replayed process CPU of one S1/S2 rebuild, one score refresh
/// (loss evaluation excluded) and one training step, for the
/// reconciliation.
struct ReplayCpu {
  double rebuild_s, score_s, step_s;
};
ReplayCpu replay_stages(const pinn::ScenarioConfig& cfg,
                   const core::SgmOptions& sopt,
                   const core::SgmSampler& sampler, const nn::Mlp& trained,
                   std::uint64_t replica_seed, Tracer& tracer, Result& layers) {
  const tensor::Matrix& points = cfg.problem->interior_points();
  core::PgmOptions pgm = sopt.pgm;
  pgm.output_feature_weight = sopt.rebuild_output_weight;
  graph::LrdOptions lrd = sopt.lrd;
  if (sopt.num_threads) pgm.num_threads = lrd.num_threads = sopt.num_threads;
  graph::ErOptions er = lrd.er;
  if (lrd.num_threads) er.num_threads = lrd.num_threads;

  constexpr int kGraphReps = 3;
  std::vector<double> rebuild_cpu;
  for (int r = 0; r < kGraphReps; ++r) {
    graph::CsrGraph g;
    tensor::Matrix z;
    rebuild_cpu.push_back(
        replay(tracer, "replay.knn",
               [&] { g = core::build_pgm(points, nullptr, pgm); }) +
        replay(tracer, "replay.er",
               [&] { z = graph::effective_resistance_embedding(g, er); }) +
        replay(tracer, "replay.lrd", [&] {
          (void)graph::lrd_decompose_with_embedding(g, z, lrd);
        }));
  }

  util::Rng rng(mix_seed(replica_seed, 3));
  const core::ClusterStore& store = sampler.clusters();
  constexpr int kScoreReps = 5;
  std::vector<double> score_cpu;
  for (int r = 0; r < kScoreReps; ++r) {
    core::ClusterStore::Representatives reps;
    double cpu = replay(tracer, "replay.score", [&] {
      reps = store.sample_representatives(sopt.rep_fraction, rng);
    });
    const std::vector<double> rep_loss =
        cfg.problem->pointwise_residual(trained, reps.node);
    std::vector<double> rep_isr;
    if (sopt.use_isr && reps.node.size() > 2) {
      cpu += replay(tracer, "replay.isr", [&] {
        tensor::Matrix sub(reps.node.size(), points.cols());
        for (std::size_t i = 0; i < reps.node.size(); ++i)
          for (std::size_t c = 0; c < points.cols(); ++c)
            sub(i, c) = points(reps.node[i], c);
        graph::KnnGraphOptions kx;
        kx.k = std::min(sopt.isr_subset_k, reps.node.size() - 1);
        kx.weight = graph::KnnWeight::kInverse;
        const graph::CsrGraph gx = graph::build_knn_graph(sub, kx);
        tensor::Matrix y(reps.node.size(), 1);
        for (std::size_t i = 0; i < reps.node.size(); ++i)
          y(i, 0) = rep_loss[i];
        rep_isr = spade::compute_isr(gx, y, sopt.isr).node_score;
      });
    }
    cpu += replay(tracer, "replay.score", [&] {
      const core::ClusterScores scores =
          core::score_clusters(store, reps, rep_loss, rep_isr, sopt.scorer);
      (void)core::build_epoch(store, scores.combined, sopt.epoch, rng);
    });
    score_cpu.push_back(cpu);
  }

  // One training step, split where the trainer's loop splits it.
  const std::size_t threads = util::resolve_threads(cfg.trainer.num_threads);
  nn::Mlp net = trained;
  tensor::Tape tape;
  tape.set_num_threads(threads);
  nn::Mlp::Binding binding;
  std::vector<tensor::Matrix> grads;
  const std::vector<tensor::Matrix*> params = net.parameters();
  nn::Adam adam(cfg.trainer.learning_rate);
  const auto n = static_cast<std::uint32_t>(points.rows());
  constexpr int kStepReps = 30;
  std::vector<double> step_cpu;
  for (int r = 0; r < kStepReps; ++r) {
    std::vector<std::uint32_t> rows(cfg.trainer.batch_size);
    for (auto& row : rows) row = static_cast<std::uint32_t>(rng.uniform_index(n));
    tensor::VarId loss;
    step_cpu.push_back(
        replay(tracer, "replay.forward",
               [&] {
                 tape.clear();
                 net.bind(tape, &binding);
                 loss = cfg.problem->batch_loss(tape, net, binding, rows, rng);
               }) +
        replay(tracer, "replay.backward", [&] { tape.backward(loss); }) +
        replay(tracer, "replay.adam", [&] {
          net.collect_grads_into(tape, binding, &grads);
          adam.step(params, grads);
        }));
  }

  const double knn = median_ms(tracer, "replay.knn");
  const double er_ms = median_ms(tracer, "replay.er");
  const double lrd_ms = median_ms(tracer, "replay.lrd");
  // Two "replay.score" spans per repetition (before and after the loss
  // evaluation): their per-repetition sum is one score refresh.
  const double score = 1e3 * tracer.total_s("replay.score") / kScoreReps;
  const double isr =
      sopt.use_isr ? median_ms(tracer, "replay.isr") : 0.0;
  const double fwd = median_ms(tracer, "replay.forward");
  const double bwd = median_ms(tracer, "replay.backward");
  const double adam_ms = median_ms(tracer, "replay.adam");
  layers.metric("graph.knn_ms", knn, "ms");
  layers.metric("graph.er_ms", er_ms, "ms");
  layers.metric("graph.lrd_ms", lrd_ms, "ms");
  layers.metric("spade.isr_ms", isr, "ms");
  layers.metric("core.score_ms", score, "ms");
  layers.metric("tensor.forward_ms", fwd, "ms");
  layers.metric("tensor.backward_ms", bwd, "ms");
  layers.metric("nn.adam_ms", adam_ms, "ms");
  layers.metric("tensor.threads", static_cast<double>(threads), "count");
  return {median(rebuild_cpu), median(score_cpu), median(step_cpu)};
}

}  // namespace

const TrainSpec* find_train_spec(const std::string& workload) {
  for (const TrainSpec& s : train_specs())
    if (workload == s.workload) return &s;
  return nullptr;
}

bool same_trajectory(const pinn::TrainHistory& a, const pinn::TrainHistory& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const pinn::TrainRecord& ra = a.records[i];
    const pinn::TrainRecord& rb = b.records[i];
    if (ra.iteration != rb.iteration ||
        std::memcmp(&ra.mean_loss, &rb.mean_loss, sizeof(double)) != 0 ||
        ra.validation.size() != rb.validation.size())
      return false;
    for (std::size_t j = 0; j < ra.validation.size(); ++j)
      if (ra.validation[j].name != rb.validation[j].name ||
          std::memcmp(&ra.validation[j].error, &rb.validation[j].error,
                      sizeof(double)) != 0)
        return false;
  }
  return true;
}

ReplicaOutcome train_replica(const pinn::ScenarioConfig& cfg,
                             const TrainSpec& spec, std::uint64_t replica_seed,
                             Tracer* tracer, Result* layers) {
  ReplicaOutcome out;
  // The registered sampler options, S2/S3 seeds included: the clustering is
  // a property of the scenario. The sampler's per-run draws (representatives,
  // epochs, batch order) come from the trainer's RNG, seeded below.
  const core::SgmOptions& sopt = cfg.sgm;
  util::WallTimer setup;
  std::optional<nn::Mlp> net;
  {
    ScopedSpan span(tracer, "nn.init");
    util::Rng net_rng(mix_seed(replica_seed, 0));
    net.emplace(cfg.net, net_rng);
  }
  std::optional<core::SgmSampler> sampler;
  {
    ScopedSpan span(tracer, "core.initial_build");
    sampler.emplace(cfg.problem->interior_points(), sopt);
  }
  out.setup_s = setup.elapsed_s();

  pinn::TrainerOptions topt = cfg.trainer;
  topt.max_iterations = spec.budget;
  topt.validate_every = spec.validate_every;
  topt.seed = mix_seed(replica_seed, 1);

  MeteredProblem problem(*cfg.problem, tracer);
  std::optional<TimedSampler> timed;
  if (tracer) timed.emplace(*sampler, *tracer);
  samplers::Sampler& injected =
      timed ? static_cast<samplers::Sampler&>(*timed) : *sampler;

  problem.start();
  try {
    ScopedSpan span(tracer, "pinn.train");
    pinn::Trainer trainer(problem, *net, injected, topt);
    out.history = trainer.run();
  } catch (const std::exception& e) {
    out.why = std::string("training threw: ") + e.what();
    return out;
  }
  out.train_cpu_s = problem.train_cpu_s();
  out.train_wall_s = out.history.total_train_wall_s;
  out.iterations =
      out.history.records.empty() ? 0 : out.history.records.back().iteration;
  out.tta_s = out.history.time_to_reach(spec.metric, spec.target);
  out.best_err = out.history.best_error(spec.metric);
  if (!std::isfinite(out.best_err)) {
    out.why = std::string("best ") + spec.metric + " error is not finite";
  } else if (!std::isfinite(out.tta_s)) {
    out.why = std::string("target ") + spec.metric + " <= " +
              json_number(spec.target) + " missed (best " +
              json_number(out.best_err) + ")";
  } else {
    out.ok = true;
  }
  out.latency_s = out.train_wall_s;
  out.op_cpu_s = out.train_cpu_s;
  if (spec.ends_at == OpEnd::kTarget && out.ok) {
    // time_to_reach() returns the wall stamp of the first record at or
    // below the target; the CPU stamp of that same validation ends the op.
    const auto& records = out.history.records;
    const auto& stamps = problem.train_cpu_at_validation();
    for (std::size_t i = 0; i < records.size() && i < stamps.size(); ++i)
      if (records[i].train_wall_s == out.tta_s) {
        out.latency_s = out.tta_s;
        out.op_cpu_s = stamps[i];
        break;
      }
  }

  if (tracer && layers) {
    const Tracer& t = *tracer;
    const double iters = static_cast<double>(out.iterations);
    const double rows = iters * static_cast<double>(topt.batch_size);
    layers->metric("pinn.trainer_self_s", t.self_s("pinn.train"), "s");
    layers->metric("pinn.batch_loss_s", t.total_s("pinn.batch_loss"), "s");
    layers->metric("pinn.batch_loss_calls",
                   static_cast<double>(t.count("pinn.batch_loss")), "count");
    layers->metric("pinn.step_ms_p50", step_ms_p50(t, timed->entries()), "ms");
    layers->metric("samplers.refresh_s", t.total_s("samplers.refresh"), "s");
    layers->metric("samplers.refresh_calls",
                   static_cast<double>(timed->working_calls()), "count");
    layers->metric("samplers.next_batch_s", t.total_s("samplers.next_batch"),
                   "s");
    layers->metric("pinn.residual_s", t.total_s("pinn.residual"), "s");
    layers->metric("pinn.residual_rows",
                   static_cast<double>(problem.residual_rows()), "count");
    layers->metric("core.evals_per_sample",
                   rows > 0 ? static_cast<double>(problem.residual_rows()) / rows
                            : 0.0,
                   "ratio");
    if (sampler->loss_evaluations() != problem.residual_rows())
      layers->fail_check("sampler counted " +
                         std::to_string(sampler->loss_evaluations()) +
                         " loss evaluations, the problem saw " +
                         std::to_string(problem.residual_rows()));
    layers->metric("core.rebuilds",
                   static_cast<double>(sampler->rebuild_count()), "count");
    layers->metric("core.score_refreshes",
                   static_cast<double>(problem.residual_calls()), "count");
    layers->metric("core.clusters",
                   static_cast<double>(sampler->clusters().num_clusters()),
                   "count");
    layers->metric("core.epoch_size",
                   static_cast<double>(sampler->last_epoch_size()), "count");
    layers->metric("core.initial_build_s", t.total_s("core.initial_build"),
                   "s");
    layers->metric("pinn.validate_s", t.total_s("pinn.validate"), "s");
    layers->metric("pinn.best_err", out.best_err, "rel_l2");
    const ReplayCpu replayed =
        replay_stages(cfg, sopt, *sampler, *net, replica_seed, *tracer, *layers);

    // Reconciliation: replayed stage costs x observed call counts against
    // what the decorators measured, in process CPU, which leaves out the
    // host's CPU steal (on a shared 4-vCPU host, a steal burst during the
    // short replays doubled their wall time).
    const double refresh_measured =
        timed->refresh_cpu_s() - problem.residual_cpu_s();
    const double refresh_predicted =
        static_cast<double>(sampler->rebuild_count()) * replayed.rebuild_s +
        static_cast<double>(problem.residual_calls()) * replayed.score_s;
    const double step_measured = out.train_cpu_s - timed->refresh_cpu_s();
    const double step_predicted = iters * replayed.step_s;
    const double refresh_dev =
        std::abs(refresh_predicted - refresh_measured) / refresh_measured;
    const double step_dev =
        std::abs(step_predicted - step_measured) / step_measured;
    layers->metric("trace.reconcile_refresh_frac", refresh_dev, "ratio");
    layers->metric("trace.reconcile_step_frac", step_dev, "ratio");
    const double dev = std::max(refresh_dev, step_dev);
    layers->metric("trace.reconcile_frac", dev, "ratio");
    if (!(dev <= kReconcileTolerance))
      layers->fail_check("replayed stages do not reconcile with the measured "
                         "refresh/step time: deviation " + json_number(dev));
  }
  return out;
}

void fold_replicas(const std::vector<ReplicaOutcome>& replicas,
                   std::size_t batch_size, double scenario_build_s,
                   Result& result) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> op_cpu, latency, rows_per_s, cpu_per_row, setup;
  for (const ReplicaOutcome& r : replicas) {
    ++result.attempted;
    setup.push_back(r.setup_s);
    op_cpu.push_back(r.ok ? r.op_cpu_s : inf);
    latency.push_back(r.ok ? r.latency_s : inf);
    if (!r.ok) {
      ++result.failed;
      result.notes.push_back(r.why);
      if (r.iterations == 0) continue;  // threw: no throughput to report
    }
    const double rows =
        static_cast<double>(r.iterations) * static_cast<double>(batch_size);
    rows_per_s.push_back(rows / r.train_wall_s);
    cpu_per_row.push_back(1e6 * r.train_cpu_s / rows);
  }
  for (const ReplicaOutcome& r : replicas)
    if (r.iterations > 0 && !std::isfinite(r.best_err))
      result.fail_check("non-finite best error: " + r.why);
  result.metric("cpu_ms_per_op", 1e3 * median(op_cpu), "ms");
  result.metric("setup_s", scenario_build_s + median(setup), "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  // Recorded but not gated: CPU per trained row over the whole budget, and
  // the wall-clock figures (see main.cpp).
  result.fact("cpu_us_per_row", median(cpu_per_row));
  result.fact("wall_latency_ms", 1e3 * median(latency));
  result.fact("wall_rows_per_s", median(rows_per_s));
}

Result run_train(const TrainSpec& spec, const RunOptions& opt) {
  Result result;
  result.fact("scenario", spec.scenario);
  result.fact("target_metric", spec.metric);
  result.fact("target", spec.target);
  result.fact("budget_iterations", static_cast<double>(spec.budget));
  result.fact("validate_every", static_cast<double>(spec.validate_every));
  result.fact("replicas", static_cast<double>(opt.trace ? 1 : spec.replicas));

  std::optional<Tracer> tracer;
  if (opt.trace) tracer.emplace();
  Tracer* tr = tracer ? &*tracer : nullptr;

  util::WallTimer build;
  pinn::ScenarioConfig cfg;
  {
    ScopedSpan span(tr, "cfd.scenario_build");
    cfg = pinn::ScenarioRegistry::instance().make(spec.scenario,
                                                  pinn::ScenarioScale::kFull);
  }
  const double scenario_build_s = build.elapsed_s();

  const std::size_t trainer_threads =
      util::resolve_threads(cfg.trainer.num_threads);
  const std::size_t sgm_threads = util::resolve_threads(
      cfg.sgm.num_threads ? cfg.sgm.num_threads : cfg.sgm.pgm.num_threads);
  result.fact("trainer_threads", static_cast<double>(trainer_threads));
  result.fact("sgm_threads", static_cast<double>(sgm_threads));
  result.fact("batch_size", static_cast<double>(cfg.trainer.batch_size));

  if (!opt.trace) {
    std::vector<ReplicaOutcome> replicas;
    for (std::size_t i = 0; i < spec.replicas; ++i)
      replicas.push_back(train_replica(cfg, spec, mix_seed(opt.seed, 100 + i)));
    fold_replicas(replicas, cfg.trainer.batch_size, scenario_build_s, result);
    result.fact("scenario_build_s", scenario_build_s);
    std::string tta_list = "[", best_list = "[";
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      if (i) {
        tta_list += ", ";
        best_list += ", ";
      }
      tta_list += json_number(replicas[i].tta_s);
      best_list += json_number(replicas[i].best_err);
    }
    result.facts.emplace_back("replica_tta_s", tta_list + "]");
    result.facts.emplace_back("replica_best_err", best_list + "]");
    return result;
  }

  // Traced run: the first replica twice, untraced then traced. The
  // decorators only time, so the two histories must match bit for bit, and
  // the difference in latency is the tracing overhead.
  const std::uint64_t replica_seed = mix_seed(opt.seed, 100);
  const ReplicaOutcome plain = train_replica(cfg, spec, replica_seed);
  const ReplicaOutcome traced =
      train_replica(cfg, spec, replica_seed, tr, &result);
  result.attempted = 2;
  result.failed = (plain.ok ? 0 : 1) + (traced.ok ? 0 : 1);
  if (!plain.ok) result.notes.push_back("untraced: " + plain.why);
  if (!traced.ok) result.notes.push_back("traced: " + traced.why);
  if (plain.iterations > 0 && traced.iterations > 0 &&
      !same_trajectory(plain.history, traced.history))
    result.fail_check("traced history differs from the untraced one");
  if (traced.iterations > 0) {
    result.metric("cfd.scenario_build_s", scenario_build_s, "s");
    result.metric("pinn.wall_latency_s", traced.latency_s, "s");
    result.metric("trace.overhead_frac",
                  traced.latency_s / plain.latency_s - 1.0, "ratio");
    result.fact("untraced_latency_s", plain.latency_s);
    result.fact("traced_latency_s", traced.latency_s);
  }
  const std::string path = opt.out_dir + "/trace-" + spec.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  tracer->write_chrome_json(path);
  result.fact("trace_path", path);
  result.fact("trace_spans", static_cast<double>(tracer->spans().size()));
  return result;
}

}  // namespace perfbench
