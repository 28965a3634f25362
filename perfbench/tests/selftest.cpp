// Self-test of the benchmark's failure accounting:
//
//   python3 perfbench/run.py --self-test
//
// 1. A one-bit change in one probe's expected response makes exactly the
//    queries that used that probe count as failed, and no others.
// 2. Arming `trainer.diverge` through the failpoint API, with rollback off
//    (the registered configs leave snapshot_every at 0), makes a training
//    count as failed and report no cost to target.
// Small smoke-scale scenarios keep it to a few seconds; the code under
// test is the benchmark's own client, replica runner and fold.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "pinn/scenario.hpp"
#include "serve/batcher.hpp"
#include "serve/http_server.hpp"
#include "serve/model_registry.hpp"
#include "serve_bench.hpp"
#include "train_bench.hpp"
#include "util/failpoint.hpp"

namespace {

int g_checks = 0;
int g_failures = 0;

void check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

using namespace sgm;

void one_bit_response_change_is_a_failed_query(const std::string& dir) {
  const std::string root = dir + "/selftest-registry";
  std::filesystem::remove_all(root);
  const std::string scenario = "annular_ring_param";
  const pinn::ScenarioConfig cfg = pinn::ScenarioRegistry::instance().make(
      scenario, pinn::ScenarioScale::kSmoke);
  util::Rng rng(cfg.net_seed);
  const nn::Mlp net(cfg.net, rng);
  serve::ModelRegistry registry(root);
  const std::uint64_t version = registry.publish(scenario, net);
  serve::ServeMetrics metrics;
  serve::InferenceBatcher batcher(registry, serve::BatcherOptions{}, &metrics);
  serve::HttpServer server(registry, batcher, metrics,
                           serve::HttpServerOptions{});

  constexpr std::size_t kProbes = 8;
  constexpr std::size_t kCorrupt = 3;
  std::vector<perfbench::Probe> probes = perfbench::make_probes(
      net, scenario, version, cfg.problem->interior_points(), kProbes, 11);
  constexpr double kWindowS = 0.3;

  const perfbench::ClientStats clean =
      perfbench::run_client(server.port(), probes, kWindowS, metrics);
  check(clean.sent > 0 && clean.correct == clean.sent && clean.wrong == 0 &&
            clean.unanswered == 0,
        "unmodified expectations: every query correct");

  // Flip the lowest bit of the last digit before the closing "]}".
  std::string& want = probes[kCorrupt].expected;
  want[want.rfind(']') - 1] ^= 1;
  const perfbench::ClientStats st =
      perfbench::run_client(server.port(), probes, kWindowS, metrics);
  // Requests cycle through the probes in order, so the corrupted probe was
  // used by exactly these many of the queries sent.
  const std::uint64_t expected_wrong =
      st.sent / kProbes + (st.sent % kProbes > kCorrupt ? 1 : 0);
  check(st.unanswered == 0, "one-bit change: every query answered");
  check(st.wrong == expected_wrong && st.wrong > 0,
        "one-bit change: " + std::to_string(st.wrong) +
            " failed queries, expected " + std::to_string(expected_wrong));
  check(st.correct + st.wrong == st.sent,
        "one-bit change: no other query failed");
  check(st.latency.counts.back() > 0,
        "one-bit change: failed queries are infinitely late (top bucket)");

  server.stop();
  batcher.stop();
  std::filesystem::remove_all(root);
}

void armed_divergence_is_a_failed_training() {
  const pinn::ScenarioConfig cfg = pinn::ScenarioRegistry::instance().make(
      "poisson2d", pinn::ScenarioScale::kSmoke);
  check(cfg.trainer.snapshot_every == 0, "registered config has rollback off");
  // A target any finished training reaches, so only the divergence can
  // fail the replica.
  const perfbench::TrainSpec spec{"selftest", "poisson2d", "u", 1e9, 30, 10, 2,
                                  perfbench::OpEnd::kTarget};

  const perfbench::ReplicaOutcome healthy =
      perfbench::train_replica(cfg, spec, 5);
  check(healthy.ok && std::isfinite(healthy.tta_s),
        "control replica reaches the target: " + healthy.why);

  util::FailpointRegistry::instance().arm("trainer.diverge", "after:5");
  std::vector<perfbench::ReplicaOutcome> replicas;
  replicas.push_back(perfbench::train_replica(cfg, spec, 5));
  util::FailpointRegistry::instance().disarm_all();
  replicas.push_back(healthy);
  check(!replicas[0].ok &&
            replicas[0].why.find("training threw") != std::string::npos,
        "armed divergence: replica failed (" + replicas[0].why + ")");

  perfbench::Result result;
  perfbench::fold_replicas({replicas[0]}, cfg.trainer.batch_size, 0.0, result);
  check(result.attempted == 1 && result.failed == 1,
        "armed divergence: counted as one failed training");
  check(!std::isfinite(result.get("cpu_ms_per_op")),
        "armed divergence: no cost to target reported");

  perfbench::Result both;
  perfbench::fold_replicas(replicas, cfg.trainer.batch_size, 0.0, both);
  check(both.attempted == 2 && both.failed == 1,
        "one failed of two trainings: failed = 1");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  std::filesystem::create_directories(dir);
  one_bit_response_change_is_a_failed_query(dir);
  armed_divergence_is_a_failed_training();
  std::printf("perfbench selftest: %d checks, %d failed\n", g_checks,
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
