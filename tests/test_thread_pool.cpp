// Tests for the threading substrate (util/thread_pool.*) and the refresh
// engine's core determinism contract: for a fixed seed, the S1 PGM build and
// the S2 LRD decomposition must be byte-identical at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pgm.hpp"
#include "graph/knn.hpp"
#include "graph/lrd.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using sgm::graph::CsrGraph;
using sgm::tensor::Matrix;

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPool, SubmitReturnsValues) {
  sgm::util::ThreadPool pool(2);
  auto f1 = pool.submit([]() { return 41 + 1; });
  auto f2 = pool.submit([]() { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, RunsManyTasks) {
  sgm::util::ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i)
    futs.push_back(pool.submit([&sum]() { sum.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  sgm::util::ThreadPool pool(1);
  auto f = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ResolveThreadsPassesThroughExplicitCounts) {
  EXPECT_EQ(sgm::util::resolve_threads(1), 1u);
  EXPECT_EQ(sgm::util::resolve_threads(7), 7u);
  EXPECT_GE(sgm::util::resolve_threads(0), 1u);
}

TEST(ThreadPool, ResolveThreadsParsesEnvStrictly) {
  // Only resolve_threads(0) runs here: no pool is sized from these values.
  // The variable is restored on scope exit.
  struct RestoreEnv {
    std::optional<std::string> saved;
    RestoreEnv() {
      if (const char* v = std::getenv("SGM_NUM_THREADS")) saved = v;
    }
    ~RestoreEnv() {
      if (saved)
        ::setenv("SGM_NUM_THREADS", saved->c_str(), 1);
      else
        ::unsetenv("SGM_NUM_THREADS");
    }
  } restore;
  const std::size_t hardware =
      std::max(std::thread::hardware_concurrency(), 1u);
  auto resolve_with = [](const char* value) {
    ::setenv("SGM_NUM_THREADS", value, 1);
    return sgm::util::resolve_threads(0);
  };

  EXPECT_EQ(resolve_with("4"), 4u);
  EXPECT_EQ(resolve_with("256"), 256u);
  EXPECT_EQ(resolve_with("0"), hardware);
  EXPECT_EQ(resolve_with(""), hardware);
  for (const char* bad : {"4abc", " 4", "+4", "-1", "257", "100000",
                          "99999999999999999999", "abc", "4 "}) {
    try {
      resolve_with(bad);
      ADD_FAILURE() << "accepted SGM_NUM_THREADS=\"" << bad << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("SGM_NUM_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
  ::unsetenv("SGM_NUM_THREADS");
  EXPECT_EQ(sgm::util::resolve_threads(0), hardware);
}

// ------------------------------------------------------- parallel_for(_chunks)

TEST(ParallelFor, ChunkLayoutMatchesGrain) {
  EXPECT_EQ(sgm::util::num_chunks(0, 10, 4), 3u);
  EXPECT_EQ(sgm::util::num_chunks(0, 12, 4), 3u);
  EXPECT_EQ(sgm::util::num_chunks(5, 5, 4), 0u);
  EXPECT_EQ(sgm::util::num_chunks(0, 1, 100), 1u);
}

TEST(ParallelFor, ChunksCoverRangeExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<int> hits(1000, 0);
    std::vector<int> chunk_of(1000, -1);
    sgm::util::parallel_for_chunks(
        0, 1000, 64, threads,
        [&](std::size_t b, std::size_t e, std::size_t c) {
          for (std::size_t i = b; i < e; ++i) {
            ++hits[i];
            chunk_of[i] = static_cast<int>(c);
          }
        });
    for (std::size_t i = 0; i < 1000; ++i) {
      EXPECT_EQ(hits[i], 1) << "index " << i << " threads " << threads;
      // Chunk index must follow the fixed grain layout, not the thread count.
      EXPECT_EQ(chunk_of[i], static_cast<int>(i / 64));
    }
  }
}

TEST(ParallelFor, PerIndexVariantCoversRange) {
  std::vector<std::atomic<int>> hits(500);
  sgm::util::parallel_for(0, 500, 4, [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RethrowsFirstException) {
  EXPECT_THROW(
      sgm::util::parallel_for_chunks(
          0, 100, 1, 4,
          [](std::size_t b, std::size_t, std::size_t) {
            if (b == 37) throw std::runtime_error("chunk 37");
          }),
      std::runtime_error);
}

TEST(ParallelFor, NestedLoopsDoNotDeadlock) {
  std::atomic<int> total{0};
  sgm::util::parallel_for_chunks(
      0, 8, 1, 4, [&](std::size_t, std::size_t, std::size_t) {
        sgm::util::parallel_for_chunks(
            0, 8, 1, 4, [&](std::size_t, std::size_t, std::size_t) {
              total.fetch_add(1);
            });
      });
  EXPECT_EQ(total.load(), 64);
}

// --------------------------------------------- serial-vs-parallel identity --

Matrix random_points(std::size_t n, std::size_t d, sgm::util::Rng& rng) {
  Matrix m(n, d);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform();
  return m;
}

void expect_identical_graphs(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (sgm::graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u);
    EXPECT_EQ(a.edge(e).v, b.edge(e).v);
    // Bitwise-equal weights, not just close: the determinism contract.
    EXPECT_EQ(a.edge(e).w, b.edge(e).w) << "edge " << e;
  }
}

TEST(ParallelRefresh, KdTreePgmByteIdenticalAcrossThreadCounts) {
  sgm::util::Rng rng(21);
  const Matrix pts = random_points(1500, 2, rng);
  for (auto weight :
       {sgm::graph::KnnWeight::kInverse, sgm::graph::KnnWeight::kGauss}) {
    sgm::graph::KnnGraphOptions opt;
    opt.k = 8;
    opt.weight = weight;
    opt.num_threads = 1;
    const CsrGraph serial = sgm::graph::build_knn_graph(pts, opt);
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      opt.num_threads = threads;
      expect_identical_graphs(serial, sgm::graph::build_knn_graph(pts, opt));
    }
  }
}

TEST(ParallelRefresh, MutualPgmByteIdenticalAcrossThreadCounts) {
  sgm::util::Rng rng(22);
  const Matrix pts = random_points(900, 3, rng);
  sgm::graph::KnnGraphOptions opt;
  opt.k = 6;
  opt.mutual = true;
  opt.num_threads = 1;
  const CsrGraph serial = sgm::graph::build_knn_graph(pts, opt);
  opt.num_threads = 4;
  expect_identical_graphs(serial, sgm::graph::build_knn_graph(pts, opt));
}

TEST(ParallelRefresh, BuildPgmThreadOverridePlumbsThrough) {
  sgm::util::Rng rng(24);
  const Matrix pts = random_points(600, 2, rng);
  sgm::core::PgmOptions opt;
  opt.knn.k = 6;
  opt.num_threads = 1;
  const CsrGraph serial = sgm::core::build_pgm(pts, nullptr, opt);
  opt.num_threads = 4;
  expect_identical_graphs(serial, sgm::core::build_pgm(pts, nullptr, opt));
}

TEST(ParallelRefresh, LrdClusteringIdenticalAcrossThreadCounts) {
  sgm::util::Rng rng(25);
  const Matrix pts = random_points(1000, 2, rng);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 8;
  kopt.num_threads = 1;
  const CsrGraph g = sgm::graph::build_knn_graph(pts, kopt);

  sgm::graph::LrdOptions opt;
  opt.levels = 6;
  opt.er.method = sgm::graph::ErMethod::kSmoothed;
  opt.er.num_vectors = 6;
  opt.er.smoothing_iterations = 15;
  opt.num_threads = 1;
  const sgm::graph::Clustering serial = sgm::graph::lrd_decompose(g, opt);
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    opt.num_threads = threads;
    const sgm::graph::Clustering par = sgm::graph::lrd_decompose(g, opt);
    EXPECT_EQ(serial.num_clusters, par.num_clusters);
    ASSERT_EQ(serial.node_cluster.size(), par.node_cluster.size());
    EXPECT_EQ(serial.node_cluster, par.node_cluster);
    ASSERT_EQ(serial.cluster_diameter.size(), par.cluster_diameter.size());
    for (std::size_t c = 0; c < serial.cluster_diameter.size(); ++c)
      EXPECT_EQ(serial.cluster_diameter[c], par.cluster_diameter[c]);
  }
}

TEST(ParallelRefresh, SymmetrizeEdgesMatchesSerialReference) {
  // An edge soup with both directions of a pair, exact duplicates,
  // self-loops and a hub, against a canonicalize + std::sort + std::unique
  // reference.
  // A pair's weight depends only on the pair, as in the kNN build (where
  // dist2(i, j) == dist2(j, i)), so the kept duplicate's bytes are fixed.
  using sgm::graph::Edge;
  using sgm::graph::NodeId;
  const auto edge = [](NodeId u, NodeId v) {
    return Edge{u, v, 1.0 + std::min(u, v) + 1e-3 * std::max(u, v)};
  };
  sgm::util::Rng rng(26);
  std::vector<Edge> edges;
  for (int i = 0; i < 5000; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_index(300));
    const auto v = static_cast<NodeId>(rng.uniform_index(300));
    edges.push_back(edge(u, v));
    if (i % 7 == 0) edges.push_back(edge(u, v));    // exact duplicate
    if (i % 11 == 0) edges.push_back(edge(v, u));   // reversed pair
    if (i % 13 == 0) edges.push_back(edge(u, u));   // self-loop
  }
  // A hub: node 0's bucket outgrows the insertion-sorted length.
  for (NodeId v = 0; v < 300; v += 2) edges.push_back(edge(v, 0));
  std::vector<Edge> expected = edges;
  for (Edge& e : expected)
    if (e.u > e.v) std::swap(e.u, e.v);
  std::sort(expected.begin(), expected.end(),
            [](const Edge& a, const Edge& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  expected.erase(std::unique(expected.begin(), expected.end(),
                             [](const Edge& a, const Edge& b) {
                               return a.u == b.u && a.v == b.v;
                             }),
                 expected.end());
  sgm::graph::symmetrize_edges(edges);
  ASSERT_EQ(edges.size(), expected.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(edges[i].u, expected[i].u) << "edge " << i;
    EXPECT_EQ(edges[i].v, expected[i].v) << "edge " << i;
    EXPECT_EQ(edges[i].w, expected[i].w) << "edge " << i;
  }
  std::vector<Edge> empty;
  sgm::graph::symmetrize_edges(empty);
  EXPECT_TRUE(empty.empty());
}

}  // namespace
