// Section 3.6 complexity claims, measured: kNN construction O(N log N)
// (kd-tree), effective-resistance embedding and LRD decomposition
// nearly linear in N. google-benchmark's complexity analysis reports the
// fitted exponent.

#include <benchmark/benchmark.h>

#include "core/pgm.hpp"
#include "graph/effective_resistance.hpp"
#include "graph/knn.hpp"
#include "graph/lrd.hpp"
#include "util/rng.hpp"

using namespace sgm;

namespace {

tensor::Matrix cloud(std::size_t n) {
  util::Rng rng(n * 2654435761u);
  tensor::Matrix pts(n, 2);
  for (std::size_t i = 0; i < pts.size(); ++i) pts.data()[i] = rng.uniform();
  return pts;
}

graph::CsrGraph knn_graph_of(std::size_t n, std::size_t k = 10) {
  graph::KnnGraphOptions opt;
  opt.k = k;
  return graph::build_knn_graph(cloud(n), opt);
}

void BM_KnnBuildKdTree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Matrix pts = cloud(n);
  graph::KnnGraphOptions opt;
  opt.k = 10;
  for (auto _ : state) {
    auto g = graph::build_knn_graph(pts, opt);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KnnBuildKdTree)
    ->RangeMultiplier(2)
    ->Range(1024, 16384)
    ->Complexity(benchmark::oNLogN)
    ->Unit(benchmark::kMillisecond);

void BM_ErSmoothedEmbedding(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::CsrGraph g = knn_graph_of(n);
  graph::ErOptions opt;
  opt.method = graph::ErMethod::kSmoothed;
  opt.num_vectors = 8;
  opt.smoothing_iterations = 30;
  for (auto _ : state) {
    auto z = graph::effective_resistance_embedding(g, opt);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ErSmoothedEmbedding)
    ->RangeMultiplier(2)
    ->Range(1024, 16384)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

void BM_LrdDecompose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::CsrGraph g = knn_graph_of(n);
  graph::LrdOptions opt;
  opt.levels = 10;
  opt.er.method = graph::ErMethod::kSmoothed;
  opt.er.num_vectors = 8;
  opt.er.smoothing_iterations = 30;
  for (auto _ : state) {
    auto c = graph::lrd_decompose(g, opt);
    benchmark::DoNotOptimize(c.num_clusters);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LrdDecompose)
    ->RangeMultiplier(2)
    ->Range(1024, 16384)
    ->Complexity(benchmark::oNLogN)
    ->Unit(benchmark::kMillisecond);

void BM_FullPipelineS1S2(benchmark::State& state) {
  // The complete rebuild the paper runs every tau_G iterations.
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Matrix pts = cloud(n);
  core::PgmOptions pgm;
  pgm.knn.k = 10;
  graph::LrdOptions lrd;
  lrd.levels = 10;
  lrd.er.num_vectors = 8;
  lrd.er.smoothing_iterations = 30;
  for (auto _ : state) {
    auto g = core::build_pgm(pts, nullptr, pgm);
    auto c = graph::lrd_decompose(g, lrd);
    benchmark::DoNotOptimize(c.num_clusters);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FullPipelineS1S2)
    ->RangeMultiplier(2)
    ->Range(1024, 16384)
    ->Complexity(benchmark::oNLogN)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
