// Refresh-path benchmark: one S1/S2 refresh (kNN PGM + effective-resistance
// embedding + LRD merge) measured as a FULL rebuild vs the INCREMENTAL
// engine, on the same evolving output stream, at a sweep of dirty fractions.
//
// This is the denominator the incremental refresh engine attacks: after
// PR 4 made the training step 3.3x faster, the periodic S1/S2 rebuild is
// the dominant recurring sampler cost. The acceptance line for PR 5 is a
// >= 3x refresh speedup at 10% dirty on the 50k-point sweep (kd backend).
//
// The two engines are fed the identical stream, so they stay equivalent
// (see tests/test_incremental_refresh.cpp) and every round is an
// apples-to-apples timing of the same logical refresh. Fractions above the
// fallback threshold (0.30) show the incremental engine taking the full
// path — speedup ~1x by design.
//
// Env knobs:
//   SGM_BENCH_N        points (default 50000)
//   SGM_BENCH_THREADS  worker threads per engine (default 1)
//   SGM_BENCH_JSON=1   write BENCH_incremental_refresh.json next to the
//                      binary (uploaded by the perf-smoke CI job)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/incremental_refresh.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace sgm;

namespace {

tensor::Matrix random_points(std::size_t n, std::size_t d, util::Rng& rng) {
  tensor::Matrix m(n, d);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform();
  return m;
}

tensor::Matrix base_outputs(const tensor::Matrix& pts) {
  tensor::Matrix out(pts.rows(), 1);
  for (std::size_t i = 0; i < pts.rows(); ++i)
    out(i, 0) = std::sin(3.0 * pts(i, 0)) + 0.5 * std::cos(5.0 * pts(i, 1));
  return out;
}

/// Perturbs exactly `fraction` of the points, chosen as the disc nearest a
/// (round-dependent) moving center — the spatially-coherent drift real PINN
/// training produces: residuals move with the solution front, they do not
/// scatter uniformly. (A uniformly-random dirty set at 10% touches ~70% of
/// all kNN lists via reverse neighbors, which no incremental scheme can
/// beat; the coherent case is both the physical one and the one the paper's
/// refresh amortization targets.) Alternating sign keeps the output column
/// std pinned so no repin-fallback fires mid-sweep.
void evolve_outputs(tensor::Matrix& out, const tensor::Matrix& pts,
                    double fraction, int round) {
  const std::size_t n = out.rows();
  const auto want = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(n)));
  if (want == 0) return;
  const double cx = 0.15 + 0.12 * round, cy = 0.35 + 0.09 * round;
  std::vector<std::pair<double, std::size_t>> by_dist(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = pts(i, 0) - cx, dy = pts(i, 1) - cy;
    by_dist[i] = {dx * dx + dy * dy, i};
  }
  std::nth_element(by_dist.begin(), by_dist.begin() + (want - 1),
                   by_dist.end());
  for (std::size_t t = 0; t < want; ++t) {
    const std::size_t id = by_dist[t].second;
    const double sign = (id % 2 == 0) ? 1.0 : -1.0;
    out(id, 0) += sign * (0.25 + 0.02 * round);
  }
}

std::size_t env_size_t(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long long parsed = std::atoll(v);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

struct ArmResult {
  std::string arm_name;
  double er_stale_ratio = 0.0;
  double dirty_fraction = 0.0;
  double full_s = 0.0;
  double incremental_s = 0.0;
  bool took_full_path = false;
  bool er_resynced = false;
  std::size_t requeried = 0;
  std::size_t changed_edges = 0;
  double speedup() const {
    return incremental_s > 0.0 ? full_s / incremental_s : 0.0;
  }
};

core::IncrementalRefreshOptions make_options(double threshold,
                                             double er_stale_ratio,
                                             std::size_t threads) {
  core::IncrementalRefreshOptions opt;
  opt.pgm.knn.k = 10;
  opt.pgm.output_feature_weight = 0.6;
  opt.lrd.levels = 8;  // smoothed ER at the LRD defaults
  opt.dirty_tolerance = 0.0;
  opt.incremental_threshold = threshold;
  opt.er_stale_ratio = er_stale_ratio;
  opt.num_threads = threads;
  return opt;
}

struct ArmSpec {
  const char* name;
  double er_stale_ratio;
};

}  // namespace

int main() {
  const std::size_t n = env_size_t("SGM_BENCH_N", 50000);
  const std::size_t threads = env_size_t("SGM_BENCH_THREADS", 1);
  util::Rng rng(7);
  const tensor::Matrix pts = random_points(n, 2, rng);

  // Each row measures ONE refresh at the given dirty fraction from a synced
  // state (fresh engine pair per row), which is the well-defined "cost of a
  // refresh at p% dirty". Under stale-ER amortization a steady stream of
  // p%-dirty refreshes additionally pays an exact resync roughly every
  // er_stale_ratio / changed_edge_fraction rounds (the [er resync] rows
  // show that price).
  //
  // The production configuration (scenario registry defaults) is
  // smoothed + stale-ER amortization; the strict arm resyncs the embedding
  // every refresh and shows what bitwise-exact ER incrementality costs.
  const ArmSpec specs[] = {
      {"smoothed_stale", 0.25},
      {"smoothed_strict", 0.0},
  };
  std::vector<ArmResult> arms;

  for (const ArmSpec& spec : specs) {
    int round = 0;
    for (double fraction : {0.01, 0.05, 0.10, 0.25, 0.50}) {
      ++round;
      core::IncrementalRefreshEngine full(pts,
                                          make_options(-1.0, 0.0, threads));
      core::IncrementalRefreshEngine inc(
          pts, make_options(0.30, spec.er_stale_ratio, threads));
      tensor::Matrix out = base_outputs(pts);
      full.refresh(&out);
      inc.refresh(&out);
      evolve_outputs(out, pts, fraction, round);

      ArmResult arm;
      arm.arm_name = spec.name;
      arm.er_stale_ratio = spec.er_stale_ratio;
      arm.dirty_fraction = fraction;

      util::WallTimer t_full;
      full.refresh(&out);
      arm.full_s = t_full.elapsed_s();

      core::RefreshStats stats;
      util::WallTimer t_inc;
      inc.refresh(&out, &stats);
      arm.incremental_s = t_inc.elapsed_s();
      arm.took_full_path = stats.full_rebuild;
      arm.er_resynced = stats.er_resynced;
      arm.requeried = stats.requeried_points;
      arm.changed_edges = stats.changed_edges;

      std::printf(
          "arm=%-15s dirty=%5.1f%%  full=%8.3f s  incremental=%8.3f s  "
          "speedup=%6.2fx  %s%s (requeried %zu, changed edges %zu)\n",
          spec.name, 100.0 * fraction, arm.full_s, arm.incremental_s,
          arm.speedup(),
          arm.took_full_path ? "[fallback]" : "[incremental]",
          arm.er_resynced ? "[er resync]" : "", arm.requeried,
          arm.changed_edges);
      std::fflush(stdout);
      arms.push_back(arm);
    }
  }

  if (const char* env = std::getenv("SGM_BENCH_JSON");
      env && std::string(env) != "0") {
    std::ofstream os("BENCH_incremental_refresh.json");
    os << "{\n  \"bench\": \"incremental_refresh\",\n";
    os << "  \"n\": " << n << ",\n  \"k\": 10,\n  \"threads\": " << threads
       << ",\n  \"incremental_threshold\": 0.30,\n  \"arms\": [\n";
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const ArmResult& a = arms[i];
      os << "    {\"arm\": \"" << a.arm_name
         << "\", \"er_stale_ratio\": " << a.er_stale_ratio
         << ", \"dirty_fraction\": " << a.dirty_fraction
         << ", \"full_s\": " << a.full_s
         << ", \"incremental_s\": " << a.incremental_s
         << ", \"speedup\": " << a.speedup()
         << ", \"full_path_fallback\": " << (a.took_full_path ? "true" : "false")
         << ", \"er_resynced\": " << (a.er_resynced ? "true" : "false")
         << ", \"requeried_points\": " << a.requeried
         << ", \"changed_edges\": " << a.changed_edges << "}"
         << (i + 1 < arms.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::printf("Wrote BENCH_incremental_refresh.json\n");
  }
  return 0;
}
