// The repository benchmark: one named workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>]
//
// Workloads (why each exists is in BENCHMARK.json):
//   train-ldc-sgm       ldc_zeroeq kFull, registered SGM options (S3 off)
//   train-annular-sgms  annular_ring_param kFull, registered SGM-S options
//   serve-http          annular kFull network behind the reactor HttpServer
//
// End-to-end metrics (--trace 0), one definition per workload kind. An
// operation is one training (train-annular-sgms: until the first
// validation at or below its target; train-ldc-sgm: its whole budget, the
// target being the accuracy check) or one HTTP query.
//   cpu_ms_per_op   process CPU per operation: training CPU (validation
//                   excluded) up to the operation's end, median over the
//                   run's replica trainings, a failed one counting as +inf;
//                   serving: process CPU minus the client thread's, per
//                   correct response.
//   setup_s         training: scenario build + network init + sampler
//                   construction; serving: registry open + checkpoint
//                   load/verify + batcher/server start up to the first
//                   correct response (median of several set-ups).
//   peak_rss_mb     process high-water resident set size.
//
// Wall-clock figures (time to target, rows/s, query p50/p99, qps) are in
// every run record but are not gated: on the shared 4-vCPU host the
// benchmark was built on, hypervisor CPU steal moved the wall time of
// identical training runs by up to 2x, while CPU per row moved by ~10%.
//
// --trace 1 runs the workload again with timing decorators, replays the
// stages through their public functions, writes Chrome trace-event JSON to
// the output directory and prints the per-layer metrics of the layers the
// workload runs instead.
//
// The last line is the workload's metrics with their units; run.py orders
// them as BENCHMARK.json lists them, checks their units and fills in 0 for
// the layers a workload does not run.
//
// The run refuses to start when SGM_FAILPOINTS, SGM_AUDIT or
// SGM_NUM_THREADS is set: each silently changes what is measured.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "report.hpp"
#include "serve_bench.hpp"
#include "train_bench.hpp"

namespace {

using perfbench::Result;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <train-ldc-sgm|train-annular-sgms|"
               "serve-http> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--commit <id>]\n",
               argv0);
  return 2;
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0)
    return std::thread::hardware_concurrency();
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  opt.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end && *end == '\0' && opt.seconds > 0.0;
    } else if (key == "--trace") {
      opt.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else if (key == "--commit") {
      commit = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds ||
      !have_trace)
    return usage(argv[0]);

  for (const char* var : {"SGM_FAILPOINTS", "SGM_AUDIT", "SGM_NUM_THREADS"}) {
    if (std::getenv(var)) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set (it changes what "
                   "is measured); unset it\n",
                   var);
      return 2;
    }
  }

  const perfbench::TrainSpec* train = perfbench::find_train_spec(opt.workload);
  if (!train && opt.workload != "serve-http") return usage(argv[0]);

  try {
    std::filesystem::create_directories(opt.out_dir);
    Result r = train ? perfbench::run_train(*train, opt)
                     : perfbench::run_serve(opt);
    r.fact("workload", opt.workload);
    r.fact("seed", static_cast<double>(opt.seed));
    r.fact("trace", opt.trace ? 1.0 : 0.0);
    r.fact("nproc", static_cast<double>(affinity_cpus()));
    r.fact("hardware_concurrency",
           static_cast<double>(std::thread::hardware_concurrency()));
    r.fact("compiler", PERFBENCH_COMPILER);
    r.fact("build_type", PERFBENCH_BUILD_TYPE);
    r.fact("commit", commit);

    const std::string record = r.record_json();
    const std::string path = opt.out_dir + "/result-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0") + ".json";
    std::ofstream(path, std::ios::trunc) << record << "\n";
    std::printf("perfbench record: %s\n", record.c_str());
    std::printf("%s\n", r.result_line().c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
