#include "common.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "util/csv.hpp"
#include "util/thread_pool.hpp"
#include "pinn/validation.hpp"

namespace sgm::bench {

double budget_seconds(double fallback) {
  if (const char* env = std::getenv("SGM_BENCH_BUDGET"))
    return std::max(1.0, std::atof(env));
  return fallback;
}

int num_seeds(int fallback) {
  if (const char* env = std::getenv("SGM_BENCH_SEEDS"))
    return std::max(1, std::atoi(env));
  return fallback;
}

std::size_t bench_threads(std::size_t fallback) {
  if (const char* env = std::getenv("SGM_BENCH_THREADS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

double ArmResult::best(const std::string& metric) const {
  double b = std::numeric_limits<double>::infinity();
  for (const auto& rec : records)
    for (const auto& e : rec.validation)
      if (e.name == metric) b = std::min(b, e.error);
  return b;
}

double ArmResult::time_to(const std::string& metric, double threshold) const {
  for (const auto& rec : records)
    for (const auto& e : rec.validation)
      if (e.name == metric && e.error <= threshold) return rec.train_wall_s;
  return std::numeric_limits<double>::infinity();
}

namespace {

std::unique_ptr<samplers::Sampler> make_sampler(
    const pinn::PinnProblem& problem, const Arm& arm) {
  const auto n =
      static_cast<std::uint32_t>(problem.interior_points().rows());
  switch (arm.kind) {
    case SamplerKind::kUniform:
      return std::make_unique<samplers::UniformSampler>(n);
    case SamplerKind::kMis:
      return std::make_unique<samplers::MisSampler>(
          problem.interior_points(), arm.mis);
    case SamplerKind::kSgm:
    case SamplerKind::kSgmS: {
      core::SgmOptions opt = arm.sgm;
      opt.use_isr = (arm.kind == SamplerKind::kSgmS);
      opt.num_threads = bench_threads(opt.num_threads);
      return std::make_unique<core::SgmSampler>(problem.interior_points(),
                                                opt);
    }
  }
  return nullptr;
}

}  // namespace

ArmResult run_arm(const pinn::PinnProblem& problem, const Arm& arm,
                  const nn::MlpConfig& net_cfg, double budget_s, int seeds,
                  std::uint64_t validate_every) {
  ArmResult result;
  result.arm = arm;
  const bool rebuilds =
      arm.kind == SamplerKind::kSgm || arm.kind == SamplerKind::kSgmS;
  result.num_threads =
      rebuilds ? util::resolve_threads(bench_threads(arm.sgm.num_threads))
               : 1;

  std::vector<std::vector<pinn::TrainRecord>> runs;
  for (int s = 0; s < seeds; ++s) {
    util::Rng net_rng(1000 + s);  // same init across arms for seed s
    nn::Mlp net(net_cfg, net_rng);
    auto sampler = make_sampler(problem, arm);

    pinn::TrainerOptions topt;
    topt.batch_size = arm.batch_size;
    topt.max_iterations = std::numeric_limits<std::uint64_t>::max() / 2;
    topt.wall_time_budget_s = budget_s;
    topt.learning_rate = 2e-3;
    topt.lr_gamma = 0.97;
    topt.lr_decay_steps = 1000;
    topt.validate_every = validate_every;
    topt.seed = 500 + s;
    pinn::Trainer trainer(problem, net, *sampler, topt);
    auto history = trainer.run();
    runs.push_back(history.records);
    result.refresh_seconds += history.sampler_refresh_s / seeds;
    result.loss_evaluations += history.sampler_loss_evaluations / seeds;
    if (result.metrics.empty() && !history.records.empty())
      for (const auto& e : history.records.front().validation)
        result.metrics.push_back(e.name);
  }

  // Average curves record-by-record over seeds (truncate to the shortest).
  std::size_t min_len = std::numeric_limits<std::size_t>::max();
  for (const auto& r : runs) min_len = std::min(min_len, r.size());
  for (std::size_t i = 0; i < min_len; ++i) {
    pinn::TrainRecord avg = runs[0][i];
    for (int s = 1; s < seeds; ++s) {
      avg.train_wall_s += runs[s][i].train_wall_s;
      avg.mean_loss += runs[s][i].mean_loss;
      for (std::size_t m = 0; m < avg.validation.size(); ++m)
        avg.validation[m].error += runs[s][i].validation[m].error;
    }
    avg.train_wall_s /= seeds;
    avg.mean_loss /= seeds;
    for (auto& e : avg.validation) e.error /= seeds;
    result.records.push_back(std::move(avg));
  }
  return result;
}

void print_min_time_table(const std::string& title,
                          const std::vector<ArmResult>& arms,
                          const std::vector<std::string>& metrics,
                          const std::string& scenario) {
  auto cell = [](double v) {
    char buf[32];
    if (std::isinf(v)) {
      std::snprintf(buf, sizeof buf, "%10s", "-");
    } else {
      std::snprintf(buf, sizeof buf, "%10.4g", v);
    }
    return std::string(buf);
  };

  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-18s", "Label");
  for (const auto& a : arms) std::printf("%12s", a.arm.label.c_str());
  std::printf("\n");

  for (const auto& m : metrics) {
    std::printf("Min(%-12s) ", m.c_str());
    for (const auto& a : arms) std::printf("  %s", cell(a.best(m)).c_str());
    std::printf("\n");
  }
  // Time-to-reach matrix: rows are thresholds defined by each arm's best
  // value of each metric; columns are how long every arm took to get there.
  for (const auto& m : metrics) {
    for (const auto& target : arms) {
      const double threshold = target.best(m);
      if (std::isinf(threshold)) continue;
      std::printf("T(%-8s_%-4s) ", target.arm.label.c_str(), m.c_str());
      for (const auto& a : arms)
        std::printf("  %s", cell(a.time_to(m, threshold)).c_str());
      std::printf("\n");
    }
  }
  std::printf("(times in train-wall seconds; '-' = never reached; "
              "sampler refresh included in wall time)\n");
  for (const auto& a : arms)
    std::printf("  %-14s refresh %6.2fs, extra loss evals %llu\n",
                a.arm.label.c_str(), a.refresh_seconds,
                static_cast<unsigned long long>(a.loss_evaluations));
  maybe_write_json(title, arms, metrics, scenario);
}

void print_curves(const std::string& title,
                  const std::vector<ArmResult>& arms,
                  const std::string& metric, const std::string& csv_prefix,
                  const std::string& scenario) {
  std::printf("\n=== %s (error in '%s' vs train wall seconds) ===\n",
              title.c_str(), metric.c_str());
  for (const auto& a : arms) {
    std::printf("-- %s\n", a.arm.label.c_str());
    std::string fname = csv_prefix + "_" + a.arm.label + ".csv";
    for (auto& c : fname)
      if (c == ' ' || c == '(' || c == ')') c = '_';
    util::CsvWriter csv(fname, {"train_wall_s", "err_" + metric});
    for (const auto& rec : a.records) {
      const double err = pinn::validation_error(rec.validation, metric);
      std::printf("   t=%7.2fs  err=%.5g\n", rec.train_wall_s, err);
      csv.row({rec.train_wall_s, err});
    }
    std::printf("   (series written to %s)\n", fname.c_str());
  }
  maybe_write_json(title, arms, {metric}, scenario);
}

void maybe_write_json(const std::string& title,
                      const std::vector<ArmResult>& arms,
                      const std::vector<std::string>& metrics,
                      const std::string& scenario) {
  const char* env = std::getenv("SGM_BENCH_JSON");
  if (!env || std::string(env) == "0") return;

  std::string slug = title;
  for (auto& c : slug) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      c = '_';
    }
  }
  const std::string fname = "BENCH_" + slug + ".json";

  // Infinities (metric never reached / no records) are not valid JSON;
  // emit null so downstream tooling can parse every file uniformly.
  auto num = [](double v) {
    if (std::isinf(v) || std::isnan(v)) return std::string("null");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  auto str = [](const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        q += buf;
      } else {
        q += c;
      }
    }
    return q + "\"";
  };

  std::ofstream out(fname);
  if (!out) {
    std::fprintf(stderr, "  (SGM_BENCH_JSON set but cannot open %s)\n",
                 fname.c_str());
    return;
  }
  out << "{\n  \"title\": " << str(title) << ",\n  \"scenario\": "
      << str(scenario) << ",\n  \"arms\": [\n";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const auto& a = arms[i];
    out << "    {\n      \"label\": " << str(a.arm.label) << ",\n"
        << "      \"refresh_seconds\": " << num(a.refresh_seconds) << ",\n"
        << "      \"loss_evaluations\": " << a.loss_evaluations << ",\n"
        << "      \"num_threads\": " << a.num_threads << ",\n"
        << "      \"best\": {";
    for (std::size_t m = 0; m < metrics.size(); ++m)
      out << (m ? ", " : "") << str(metrics[m]) << ": "
          << num(a.best(metrics[m]));
    out << "},\n      \"curve\": [";
    for (std::size_t r = 0; r < a.records.size(); ++r) {
      const auto& rec = a.records[r];
      out << (r ? ", " : "") << "[" << num(rec.train_wall_s);
      for (const auto& m : metrics)
        out << ", " << num(pinn::validation_error(rec.validation, m));
      out << "]";
    }
    out << "]\n    }" << (i + 1 < arms.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("  (json written to %s)\n", fname.c_str());
}

}  // namespace sgm::bench
