#include "graph/effective_resistance.hpp"

#include <cmath>
#include <stdexcept>

#include "graph/lanczos.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sgm::graph {

using tensor::Matrix;

namespace {

Matrix exact_embedding(const CsrGraph& g) {
  const std::size_t n = g.num_nodes();
  EigenPairs eig = jacobi_eigensymm(laplacian_dense(g));
  // Skip (near-)zero eigenvalues — the constant nullspace contributes
  // nothing to e_uv^T L^+ e_uv.
  const double cutoff = 1e-9 * std::max(1.0, std::fabs(eig.values.back()));
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < eig.values.size(); ++i)
    if (eig.values[i] > cutoff) keep.push_back(i);
  Matrix z(n, keep.size());
  for (std::size_t c = 0; c < keep.size(); ++c) {
    const double s = 1.0 / std::sqrt(eig.values[keep[c]]);
    for (std::size_t r = 0; r < n; ++r)
      z(r, c) = eig.vectors(r, keep[c]) * s;
  }
  return z;
}

// HyperEF-style smoothed random embedding: random vectors smoothed by
// damped Richardson iteration x <- x - sigma * L x with sigma chosen from
// the spectral bound lambda_max(L) <= 2 * max weighted degree. Richardson
// (rather than degree-normalized Jacobi) is essential here: it damps each
// Laplacian mode at a rate proportional to its *global* eigenvalue, so the
// slow modes across weak cuts — which carry the high-effective-resistance
// signal — survive the smoothing while high-frequency content dies.
Matrix smoothed_embedding(const CsrGraph& g, const ErOptions& opt) {
  const std::size_t n = g.num_nodes();
  const int t = std::max(1, opt.num_vectors);
  util::Rng rng(opt.seed);
  Matrix z(n, t);
  double d_max = 0.0;
  for (NodeId u = 0; u < n; ++u)
    d_max = std::max(d_max, g.weighted_degree(u));
  if (d_max <= 0.0) d_max = 1.0;
  const double sigma = (2.0 / 3.0) / (2.0 * d_max);
  // Random initial vectors are drawn serially (identical rng stream for any
  // thread count); the Richardson sweeps — the expensive part — then run
  // per column on the pool, each with its own workspace.
  std::vector<Vec> init(static_cast<std::size_t>(t), Vec(n));
  for (int col = 0; col < t; ++col) {
    Vec& x = init[static_cast<std::size_t>(col)];
    for (auto& v : x) v = rng.uniform(-0.5, 0.5);
    deflate_constant(x);
  }
  const double s = 1.0 / std::sqrt(static_cast<double>(t));
  util::parallel_for_chunks(
      0, static_cast<std::size_t>(t), 1, opt.num_threads,
      [&](std::size_t b, std::size_t e, std::size_t) {
        Vec y(n);
        for (std::size_t col = b; col < e; ++col) {
          Vec& x = init[col];
          for (int it = 0; it < opt.smoothing_iterations; ++it) {
            laplacian_apply(g, x, y);
            for (std::size_t i = 0; i < n; ++i) x[i] -= sigma * y[i];
            deflate_constant(x);
          }
          for (std::size_t r = 0; r < n; ++r) z(r, col) = x[r] * s;
        }
      });
  return z;
}

}  // namespace

Matrix effective_resistance_embedding(const CsrGraph& g,
                                      const ErOptions& options) {
  if (g.num_nodes() == 0) return Matrix();
  switch (options.method) {
    case ErMethod::kExact: return exact_embedding(g);
    case ErMethod::kSmoothed: return smoothed_embedding(g, options);
  }
  throw std::logic_error("effective_resistance_embedding: bad method");
}

double er_from_embedding(const Matrix& z, NodeId u, NodeId v) {
  double s = 0.0;
  const double* zu = z.row(u);
  const double* zv = z.row(v);
  for (std::size_t c = 0; c < z.cols(); ++c) {
    const double d = zu[c] - zv[c];
    s += d * d;
  }
  return s;
}

std::vector<double> edge_effective_resistance(const CsrGraph& g,
                                              const Matrix& z,
                                              std::size_t num_threads) {
  std::vector<double> er(g.num_edges());
  util::parallel_for(0, g.num_edges(), num_threads, [&](std::size_t e) {
    const EdgeId id = static_cast<EdgeId>(e);
    er[e] = er_from_embedding(z, g.edge(id).u, g.edge(id).v);
  });
  return er;
}

double exact_effective_resistance(const CsrGraph& g, NodeId u, NodeId v) {
  Matrix z = exact_embedding(g);
  return er_from_embedding(z, u, v);
}

// ------------------------------------------------- IncrementalErEngine ----

namespace {

/// Depth-limited BFS from `seeds` over the union of two adjacencies.
/// Returns the visited nodes (sorted) and, aligned, their depths.
void union_ball(const CsrGraph& a, const CsrGraph& b,
                const std::vector<NodeId>& seeds, int max_depth,
                std::vector<NodeId>* nodes, std::vector<int>* depth_out) {
  const std::size_t n = a.num_nodes();
  std::vector<int> depth(n, -1);
  std::vector<NodeId> frontier;
  for (NodeId s : seeds)
    if (s < n && depth[s] < 0) {
      depth[s] = 0;
      frontier.push_back(s);
    }
  for (int d = 0; d < max_depth && !frontier.empty(); ++d) {
    std::vector<NodeId> next;
    for (NodeId u : frontier) {
      for (NodeId v : a.neighbors(u))
        if (depth[v] < 0) {
          depth[v] = d + 1;
          next.push_back(v);
        }
      if (b.num_nodes() == n)
        for (NodeId v : b.neighbors(u))
          if (depth[v] < 0) {
            depth[v] = d + 1;
            next.push_back(v);
          }
    }
    frontier.swap(next);
  }
  nodes->clear();
  depth_out->clear();
  for (NodeId v = 0; v < n; ++v)
    if (depth[v] >= 0) {
      nodes->push_back(v);
      depth_out->push_back(depth[v]);
    }
}

}  // namespace

IncrementalErEngine::IncrementalErEngine(ErOptions options)
    : opt_(std::move(options)) {}

const std::vector<std::vector<double>>& IncrementalErEngine::cached_init(
    std::size_t n) {
  // Serial draws in a fixed order: the same (seed, n, t) always regenerates
  // the identical initial vectors, which is what lets localized updates
  // splice against cached values bit-for-bit — and what makes caching the
  // block across refreshes safe.
  const int t = std::max(1, opt_.num_vectors);
  if (init_cache_n_ == n &&
      init_cache_.size() == static_cast<std::size_t>(t))
    return init_cache_;
  util::Rng rng(opt_.seed);
  init_cache_.assign(static_cast<std::size_t>(t), std::vector<double>(n));
  for (auto& x : init_cache_) {
    for (auto& v : x) v = rng.uniform(-0.5, 0.5);
    deflate_constant(x);
  }
  init_cache_n_ = n;
  return init_cache_;
}

void IncrementalErEngine::smoothed_full(const CsrGraph& g) {
  const std::size_t n = g.num_nodes();
  const int t = std::max(1, opt_.num_vectors);
  double d_max = 0.0;
  for (NodeId u = 0; u < n; ++u)
    d_max = std::max(d_max, g.weighted_degree(u));
  if (d_max <= 0.0) d_max = 1.0;
  d_max_seen_ = std::max(d_max_seen_, d_max);
  sigma_pin_ = (2.0 / 3.0) / (2.0 * d_max_seen_);

  const std::vector<Vec>& init = cached_init(n);
  z_ = Matrix(n, static_cast<std::size_t>(t));
  const double s = 1.0 / std::sqrt(static_cast<double>(t));
  const double sigma = sigma_pin_;
  util::parallel_for_chunks(
      0, static_cast<std::size_t>(t), 1, opt_.num_threads,
      [&](std::size_t b, std::size_t e, std::size_t) {
        Vec y(n);
        for (std::size_t col = b; col < e; ++col) {
          Vec x = init[col];  // working copy; the cache is reused
          for (int it = 0; it < opt_.smoothing_iterations; ++it) {
            laplacian_apply(g, x, y);
            for (std::size_t i = 0; i < n; ++i) x[i] -= sigma * y[i];
          }
          for (std::size_t r = 0; r < n; ++r) z_(r, col) = x[r] * s;
        }
      });
}

void IncrementalErEngine::smoothed_localized(const CsrGraph& g,
                                             const std::vector<NodeId>& commit,
                                             const std::vector<NodeId>& swept) {
  const std::size_t n = g.num_nodes();
  const int t = std::max(1, opt_.num_vectors);
  const std::vector<Vec>& init = cached_init(n);
  const double s = 1.0 / std::sqrt(static_cast<double>(t));
  const double sigma = sigma_pin_;
  util::parallel_for_chunks(
      0, static_cast<std::size_t>(t), 1, opt_.num_threads,
      [&](std::size_t b, std::size_t e, std::size_t) {
        Vec y(swept.size());
        for (std::size_t col = b; col < e; ++col) {
          Vec x = init[col];  // working copy; the cache is reused
          for (int it = 0; it < opt_.smoothing_iterations; ++it) {
            // Per-node arithmetic replicates laplacian_apply exactly
            // (weighted-degree term first, then neighbors in CSR order), so
            // the committed core is bit-identical to a full sweep.
            for (std::size_t idx = 0; idx < swept.size(); ++idx) {
              const NodeId u = swept[idx];
              const auto nbrs = g.neighbors(u);
              const auto eids = g.incident_edges(u);
              double acc = g.weighted_degree(u) * x[u];
              for (std::size_t a = 0; a < nbrs.size(); ++a)
                acc -= g.edge(eids[a]).w * x[nbrs[a]];
              y[idx] = acc;
            }
            for (std::size_t idx = 0; idx < swept.size(); ++idx)
              x[swept[idx]] -= sigma * y[idx];
          }
          for (NodeId v : commit) z_(v, col) = x[v] * s;
        }
      });
}

const Matrix& IncrementalErEngine::rebuild(const CsrGraph& g) {
  if (g.num_nodes() == 0) {
    z_ = Matrix();
    return z_;
  }
  switch (opt_.method) {
    case ErMethod::kExact:
      z_ = effective_resistance_embedding(g, opt_);
      break;
    case ErMethod::kSmoothed:
      smoothed_full(g);
      break;
  }
  return z_;
}

const Matrix& IncrementalErEngine::update(
    const CsrGraph& g, const CsrGraph& prev,
    const std::vector<NodeId>& changed_nodes, ErUpdateStats* stats) {
  if (stats) {
    *stats = ErUpdateStats{};
    stats->changed_nodes = changed_nodes.size();
  }
  const std::size_t n = g.num_nodes();
  const int t = std::max(1, opt_.num_vectors);
  const bool shape_ok =
      z_.rows() == n && z_.cols() == static_cast<std::size_t>(t) &&
      prev.num_nodes() == n;
  if (n == 0 || !shape_ok || opt_.method == ErMethod::kExact) {
    if (stats) stats->full_recompute = true;
    return rebuild(g);
  }
  if (changed_nodes.empty()) return z_;  // identical graph: nothing to do

  // kSmoothed. A grown max degree would unpin the Richardson step size —
  // recompute everything under the new pin.
  double d_max = 0.0;
  for (NodeId u = 0; u < n; ++u)
    d_max = std::max(d_max, g.weighted_degree(u));
  if (d_max > d_max_seen_) {
    if (stats) stats->full_recompute = true;
    smoothed_full(g);
    return z_;
  }
  const int sweeps = std::max(1, opt_.smoothing_iterations);
  std::vector<NodeId> ball;
  std::vector<int> depth;
  union_ball(g, prev, changed_nodes, 2 * sweeps, &ball, &depth);
  if (stats) stats->region_nodes = ball.size();
  if (static_cast<double>(ball.size()) >
      opt_.incremental_region_fraction * static_cast<double>(n)) {
    if (stats) stats->full_recompute = true;
    smoothed_full(g);
    return z_;
  }
  std::vector<NodeId> commit;
  for (std::size_t i = 0; i < ball.size(); ++i)
    if (depth[i] <= sweeps) commit.push_back(ball[i]);
  smoothed_localized(g, commit, ball);
  return z_;
}

}  // namespace sgm::graph
