#include "pinn/trainer.hpp"

#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "pinn/train_checkpoint.hpp"
#include "util/csv.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace sgm::pinn {

namespace {
bool all_finite(const tensor::Matrix& m) {
  const double* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i)
    if (!std::isfinite(p[i])) return false;
  return true;
}
}  // namespace

double TrainHistory::best_error(const std::string& metric) const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& rec : records)
    for (const auto& entry : rec.validation)
      if (entry.name == metric) best = std::min(best, entry.error);
  return best;
}

double TrainHistory::time_to_reach(const std::string& metric,
                                   double threshold) const {
  for (const auto& rec : records)
    for (const auto& entry : rec.validation)
      if (entry.name == metric && entry.error <= threshold)
        return rec.train_wall_s;
  return std::numeric_limits<double>::infinity();
}

Trainer::Trainer(const PinnProblem& problem, nn::Mlp& net,
                 samplers::Sampler& sampler, const TrainerOptions& options)
    : problem_(problem), net_(net), sampler_(sampler), opt_(options) {
  if (opt_.batch_size == 0)
    throw std::invalid_argument("Trainer: batch_size must be > 0");
  if (opt_.validate_every == 0)
    throw std::invalid_argument("Trainer: validate_every must be > 0");
}

TrainHistory Trainer::run() {
  util::Rng rng(opt_.seed);
  nn::Adam adam(opt_.learning_rate);
  const nn::ExponentialDecaySchedule schedule(
      opt_.learning_rate, opt_.lr_gamma, opt_.lr_decay_steps);

  samplers::LossEvaluator evaluate =
      [this](const std::vector<std::uint32_t>& rows) {
        return problem_.pointwise_residual(net_, rows);
      };

  std::unique_ptr<util::CsvWriter> csv;

  TrainHistory history;
  history.sampler_name = sampler_.name();
  double train_wall = 0.0;
  double loss_accum = 0.0;
  std::uint64_t loss_count = 0;

  auto record_point = [&](std::uint64_t iteration) {
    TrainRecord rec;
    rec.iteration = iteration;
    rec.train_wall_s = train_wall;
    rec.mean_loss = loss_count ? loss_accum / loss_count : 0.0;
    rec.validation = problem_.validate(net_);  // outside the wall clock
    loss_accum = 0.0;
    loss_count = 0;
    if (!opt_.telemetry_csv.empty()) {
      if (!csv) {
        std::vector<std::string> header = {"iteration", "train_wall_s",
                                           "mean_loss"};
        for (const auto& e : rec.validation) header.push_back("err_" + e.name);
        csv = std::make_unique<util::CsvWriter>(opt_.telemetry_csv, header);
      }
      std::vector<double> row = {static_cast<double>(iteration), train_wall,
                                 rec.mean_loss};
      for (const auto& e : rec.validation) row.push_back(e.error);
      csv->row(row);
    }
    history.records.push_back(std::move(rec));
  };

  // The tape and its companions are hoisted out of the loop: clear()
  // retains every node's Matrix capacity, so steady-state steps re-record
  // the graph into pooled buffers with zero heap allocations in the
  // tape/forward/backward path.
  tensor::Tape tape;
  tape.set_num_threads(util::resolve_threads(opt_.num_threads));
  nn::Mlp::Binding binding;
  std::vector<tensor::Matrix> grads;
  const std::vector<tensor::Matrix*> params = net_.parameters();

  double lr_scale = 1.0;  ///< divergence-backoff multiplier on the schedule
  std::uint64_t it = 0;   ///< completed iterations

  // TrainCheckpoint doubles as the in-memory rollback snapshot — it is by
  // construction exactly the state the loop reads.
  auto capture = [&]() {
    TrainCheckpoint s;
    s.iteration = it;
    s.train_wall_s = train_wall;
    s.loss_accum = loss_accum;
    s.loss_count = loss_count;
    s.lr_scale = lr_scale;
    s.rng = rng.state();
    s.adam = adam.state();
    s.params.reserve(params.size());
    for (const auto* p : params) s.params.push_back(*p);
    s.sampler = sampler_.resume_state();
    return s;
  };
  auto restore = [&](const TrainCheckpoint& s) {
    if (s.params.size() != params.size())
      throw std::invalid_argument("Trainer: checkpoint has " +
                                  std::to_string(s.params.size()) +
                                  " tensors, net has " +
                                  std::to_string(params.size()));
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (!params[i]->same_shape(s.params[i]))
        throw std::invalid_argument(
            "Trainer: checkpoint tensor shape mismatch at " +
            std::to_string(i));
      *params[i] = s.params[i];
    }
    it = s.iteration;
    train_wall = s.train_wall_s;
    loss_accum = s.loss_accum;
    loss_count = s.loss_count;
    lr_scale = s.lr_scale;
    rng.set_state(s.rng);
    adam.set_state(s.adam);
    // Empty dealer state = this sampler keeps no resumable stream position
    // (SGM rebuilds its tables); restoring would be meaningless.
    if (!s.sampler.indices.empty()) sampler_.set_resume_state(s.sampler);
  };

  if (opt_.resume && !opt_.checkpoint_path.empty()) {
    std::error_code ec;
    if (std::filesystem::exists(opt_.checkpoint_path, ec)) {
      restore(load_train_checkpoint(opt_.checkpoint_path));
      history.resumed_from_iteration = it;
      util::log_info() << "Trainer[" << sampler_.name() << "]: resumed '"
                       << opt_.checkpoint_path << "' at iteration " << it;
    } else {
      util::log_info() << "Trainer[" << sampler_.name()
                       << "]: resume requested but '" << opt_.checkpoint_path
                       << "' does not exist; starting fresh";
    }
  }

  TrainCheckpoint snapshot;  ///< rollback point (valid iff have_snapshot)
  bool have_snapshot = false;
  std::size_t retries = 0;  ///< divergences since the last good snapshot
  if (opt_.snapshot_every > 0) {
    snapshot = capture();
    have_snapshot = true;
  }

  while (it < opt_.max_iterations) {
    util::WallTimer step_timer;

    sampler_.maybe_refresh(it, evaluate, rng);
    const std::vector<std::uint32_t> rows =
        sampler_.next_batch(opt_.batch_size, rng);

    tape.clear();
    net_.bind(tape, &binding);
    const tensor::VarId loss =
        problem_.batch_loss(tape, net_, binding, rows, rng);
    tape.backward(loss);
    net_.collect_grads_into(tape, binding, &grads);

    // Divergence sentinel — checked BEFORE the optimizer applies the step,
    // so a blow-up never reaches the parameters. `trainer.diverge` injects
    // one for the chaos tests.
    const double loss_value = tape.value(loss)(0, 0);
    bool diverged =
        !std::isfinite(loss_value) || SGM_FAILPOINT_HIT("trainer.diverge");
    if (!diverged) {
      for (const auto& g : grads) {
        if (!all_finite(g)) {
          diverged = true;
          break;
        }
      }
    }
    if (diverged) {
      train_wall += step_timer.elapsed_s();  // blown steps cost real time
      ++history.divergence_rollbacks;
      if (!have_snapshot)
        throw std::runtime_error(
            "Trainer: non-finite loss/gradient at iteration " +
            std::to_string(it) +
            " and rollback is disabled (snapshot_every == 0)");
      if (++retries > opt_.max_divergence_retries)
        throw std::runtime_error(
            "Trainer: diverged " + std::to_string(retries) +
            " times since the last good snapshot (iteration " +
            std::to_string(snapshot.iteration) + "); giving up");
      const double backed_off = lr_scale * opt_.divergence_lr_backoff;
      restore(snapshot);
      lr_scale = backed_off;  // keep the new backoff, not the snapshot's
      // Drop telemetry from the rolled-back segment so history never shows
      // an iteration twice. (Rows already written to the CSV stay — the
      // history object is the source of truth for the tables.)
      while (!history.records.empty() &&
             history.records.back().iteration > it)
        history.records.pop_back();
      util::log_info() << "Trainer[" << sampler_.name()
                       << "]: divergence -> rolled back to iteration " << it
                       << ", lr scale " << lr_scale;
      continue;
    }

    adam.set_learning_rate(schedule.lr(it) * lr_scale);
    adam.step(params, grads);

    train_wall += step_timer.elapsed_s();
    loss_accum += loss_value;
    ++loss_count;
    ++it;

    const bool last = (it == opt_.max_iterations);
    const bool budget_hit =
        opt_.wall_time_budget_s > 0.0 && train_wall >= opt_.wall_time_budget_s;
    if (it % opt_.validate_every == 0 || last || budget_hit)
      record_point(it);
    if (opt_.snapshot_every > 0 && it % opt_.snapshot_every == 0) {
      snapshot = capture();
      have_snapshot = true;
      retries = 0;
    }
    if (!opt_.checkpoint_path.empty() &&
        (last || budget_hit ||
         (opt_.checkpoint_every > 0 && it % opt_.checkpoint_every == 0)))
      save_train_checkpoint(capture(), opt_.checkpoint_path);
    if (budget_hit) {
      util::log_info() << "Trainer[" << sampler_.name()
                       << "]: wall budget reached at iteration " << it;
      break;
    }
  }

  if (csv) csv->close();  // throwing final flush: lost telemetry is an error

  history.total_train_wall_s = train_wall;
  history.sampler_refresh_s = sampler_.refresh_seconds();
  history.sampler_loss_evaluations = sampler_.loss_evaluations();
  return history;
}

}  // namespace sgm::pinn
