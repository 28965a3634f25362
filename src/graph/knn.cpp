#include "graph/knn.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace sgm::graph {

using tensor::Matrix;

namespace {
inline double dist2(const double* a, const double* b, std::size_t d) {
  double s = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    const double t = a[i] - b[i];
    s += t * t;
  }
  return s;
}

// Max-heap on (dist2, index): keeps the k lexicographically-smallest
// (dist2, index) pairs seen so far. Comparing the full pair (not just the
// distance) makes tie-breaking canonical: the selected set depends only on
// the candidate multiset, never on traversal order.
inline void heap_push(KdTree::Neighbors& heap, std::size_t k, double d2,
                      NodeId idx) {
  const std::pair<double, NodeId> cand{d2, idx};
  if (heap.size() < k) {
    heap.push_back(cand);
    std::push_heap(heap.begin(), heap.end());
  } else if (cand < heap.front()) {
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = cand;
    std::push_heap(heap.begin(), heap.end());
  }
}

KnnResult heap_to_result(KdTree::Neighbors heap) {
  std::sort_heap(heap.begin(), heap.end());
  KnnResult r;
  r.index.reserve(heap.size());
  r.dist2.reserve(heap.size());
  for (const auto& [d2, idx] : heap) {
    r.index.push_back(idx);
    r.dist2.push_back(d2);
  }
  return r;
}
}  // namespace

KdTree::KdTree(const Matrix& points)
    : n_(points.rows()), d_(points.cols()), pts_(points) {
  if (d_ == 0) throw std::invalid_argument("KdTree: dimension must be >= 1");
  order_.resize(n_);
  std::iota(order_.begin(), order_.end(), NodeId{0});
  if (n_ > 0) build(0, static_cast<std::uint32_t>(n_), 0);
}

std::int32_t KdTree::build(std::uint32_t begin, std::uint32_t end, int depth) {
  Node node;
  node.begin = begin;
  node.end = end;
  const std::int32_t id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(node);
  if (end - begin <= kLeafSize) {
    nodes_[id].leaf = true;
    return id;
  }
  // Split on the axis of largest spread for better balance than cycling.
  std::uint16_t best_axis = 0;
  double best_spread = -1.0;
  for (std::size_t ax = 0; ax < d_; ++ax) {
    double lo = pts_(order_[begin], ax), hi = lo;
    for (std::uint32_t i = begin + 1; i < end; ++i) {
      const double v = pts_(order_[i], ax);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_axis = static_cast<std::uint16_t>(ax);
    }
  }
  if (best_spread <= 0.0) {  // all points identical on every axis
    nodes_[id].leaf = true;
    return id;
  }
  const std::uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(order_.begin() + begin, order_.begin() + mid,
                   order_.begin() + end, [&](NodeId a, NodeId b) {
                     return pts_(a, best_axis) < pts_(b, best_axis);
                   });
  nodes_[id].axis = best_axis;
  nodes_[id].split = pts_(order_[mid], best_axis);
  const std::int32_t l = build(begin, mid, depth + 1);
  const std::int32_t r = build(mid, end, depth + 1);
  nodes_[id].left = l;
  nodes_[id].right = r;
  return id;
}

void KdTree::search(std::int32_t node, const double* q, std::size_t k,
                    std::int64_t exclude, Neighbors& heap) const {
  const Node& nd = nodes_[node];
  if (nd.leaf) {
    for (std::uint32_t i = nd.begin; i < nd.end; ++i) {
      const NodeId idx = order_[i];
      if (static_cast<std::int64_t>(idx) == exclude) continue;
      heap_push(heap, k, dist2(q, pts_.row(idx), d_), idx);
    }
    return;
  }
  const double delta = q[nd.axis] - nd.split;
  const std::int32_t near = delta <= 0.0 ? nd.left : nd.right;
  const std::int32_t far = delta <= 0.0 ? nd.right : nd.left;
  search(near, q, k, exclude, heap);
  const double worst =
      heap.size() < k ? std::numeric_limits<double>::infinity()
                      : heap.front().first;
  if (delta * delta <= worst) search(far, q, k, exclude, heap);
}

KnnResult KdTree::query(const double* query, std::size_t k) const {
  Neighbors heap;
  heap.reserve(k + 1);
  if (n_ > 0 && k > 0) search(0, query, k, -1, heap);
  return heap_to_result(std::move(heap));
}

void KdTree::query_point(NodeId i, std::size_t k, Neighbors& out) const {
  out.clear();
  if (n_ > 0 && k > 0)
    search(0, pts_.row(i), k, static_cast<std::int64_t>(i), out);
  std::sort_heap(out.begin(), out.end());
}

KnnResult knn_brute_force(const Matrix& points, const double* query,
                          std::size_t k, std::int64_t exclude) {
  KdTree::Neighbors heap;
  heap.reserve(k + 1);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    if (static_cast<std::int64_t>(i) == exclude) continue;
    heap_push(heap, k, dist2(query, points.row(i), points.cols()),
              static_cast<NodeId>(i));
  }
  return heap_to_result(std::move(heap));
}

void symmetrize_edges(std::vector<Edge>& edges) {
  if (edges.empty()) return;
  NodeId top = 0;  // largest smaller endpoint
  for (Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
    top = std::max(top, e.u);
  }
  // Counting sort by u: bucket u spans [start[u], start[u + 1]) of `sorted`.
  std::vector<std::size_t> start(std::size_t{top} + 2, 0);
  for (const Edge& e : edges) ++start[std::size_t{e.u} + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<Edge> sorted(edges.size());
  {
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (const Edge& e : edges) sorted[fill[e.u]++] = e;
  }
  // Then each bucket by v: an insertion sort, as a kNN list's buckets hold
  // about 2k edges each, and std::sort for a long one.
  constexpr std::size_t kInsertionSortMax = 64;
  for (std::size_t u = 0; u + 1 < start.size(); ++u) {
    const std::size_t b = start[u], e = start[u + 1];
    if (e - b > kInsertionSortMax) {
      std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(b),
                sorted.begin() + static_cast<std::ptrdiff_t>(e),
                [](const Edge& x, const Edge& y) { return x.v < y.v; });
      continue;
    }
    for (std::size_t i = b + 1; i < e; ++i) {
      const Edge x = sorted[i];
      std::size_t j = i;
      for (; j > b && sorted[j - 1].v > x.v; --j) sorted[j] = sorted[j - 1];
      sorted[j] = x;
    }
  }
  sorted.erase(std::unique(sorted.begin(), sorted.end(),
                           [](const Edge& a, const Edge& b) {
                             return a.u == b.u && a.v == b.v;
                           }),
               sorted.end());
  edges.swap(sorted);
}

namespace {

constexpr std::size_t kGrain = 256;  // points per chunk of every sweep below

// Gauss weight scale: the mean kNN distance over every point's k slots
// (edges[i k + t].w holds dist2 here); 1.0 for an empty or degenerate
// sweep. Per-chunk partial sums are merged in chunk order, so sigma is
// bit-identical for every thread count.
double mean_knn_distance(const std::vector<Edge>& edges, std::size_t n,
                         std::size_t k, std::size_t num_threads) {
  const std::size_t chunks = util::num_chunks(0, n, kGrain);
  std::vector<double> chunk_dist(chunks, 0.0);
  util::parallel_for_chunks(
      0, n, kGrain, num_threads,
      [&](std::size_t b, std::size_t e, std::size_t c) {
        double s = 0.0;
        for (std::size_t slot = b * k; slot < e * k; ++slot)
          s += std::sqrt(edges[slot].w);
        chunk_dist[c] = s;
      });
  double mean_dist = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) mean_dist += chunk_dist[c];
  if (n * k > 0) mean_dist /= static_cast<double>(n * k);
  return mean_dist > 0 ? mean_dist : 1.0;
}

}  // namespace

CsrGraph build_knn_graph(const Matrix& points, const KnnGraphOptions& options) {
  const std::size_t n = points.rows();
  if (n == 0) return CsrGraph();
  const std::size_t k = std::min(options.k, n - 1);
  const std::size_t threads = options.num_threads;

  // Directed candidates, point i's k neighbors in slots [i k, i k + k),
  // ascending by (dist2, index); w holds dist2 until the weighting pass.
  // The tree excludes i itself and holds n - 1 >= k others, so a query
  // comes back short only when a NaN coordinate prunes the search; its
  // missing slots become the self-loop (i, i), which from_edges drops.
  std::vector<Edge> edges(n * k);
  {
    const KdTree tree(points);
    util::parallel_for_chunks(
        0, n, kGrain, threads, [&](std::size_t b, std::size_t e, std::size_t) {
          KdTree::Neighbors nbrs;
          nbrs.reserve(k + 1);
          for (std::size_t i = b; i < e; ++i) {
            const auto id = static_cast<NodeId>(i);
            tree.query_point(id, k, nbrs);
            for (std::size_t t = 0; t < k; ++t)
              edges[i * k + t] = t < nbrs.size()
                                     ? Edge{id, nbrs[t].second, nbrs[t].first}
                                     : Edge{id, id, 0.0};
          }
        });
  }

  const double sigma = options.weight == KnnWeight::kGauss
                           ? mean_knn_distance(edges, n, k, threads)
                           : 1.0;
  if (options.mutual) {
    // Keep (i, j) only when j in kNN(i) AND i in kNN(j), once per pair (from
    // i < j). A dropped slot becomes the self-loop (j, j): only .u is
    // written, and the membership test reads only .v. Removing the
    // self-loops in order leaves the kept edges in slot order.
    util::parallel_for_chunks(
        0, n, kGrain, threads, [&](std::size_t b, std::size_t e, std::size_t) {
          for (std::size_t slot = b * k; slot < e * k; ++slot) {
            const NodeId i = edges[slot].u, j = edges[slot].v;
            const Edge* back = edges.data() + std::size_t{j} * k;
            const bool mutual =
                j > i && std::any_of(back, back + k, [i](const Edge& nb) {
                  return nb.v == i;
                });
            if (!mutual) edges[slot].u = j;
          }
        });
    std::erase_if(edges, [](const Edge& e) { return e.u == e.v; });
  }

  const auto weight_of = [&](double d2v) {
    switch (options.weight) {
      case KnnWeight::kUnit: return 1.0;
      case KnnWeight::kInverse:
        return 1.0 / (std::sqrt(d2v) + options.inverse_eps);
      case KnnWeight::kGauss: return std::exp(-d2v / (2.0 * sigma * sigma));
    }
    return 1.0;
  };
  util::parallel_for_chunks(
      0, edges.size(), kGrain * k, threads,
      [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t slot = b; slot < e; ++slot)
          edges[slot].w = weight_of(edges[slot].w);
      });

  // from_edges merges duplicates by *summing*; deduplicate the symmetric
  // pairs first so union edges keep their single weight (the two directions
  // of a pair carry bit-equal weights: dist2(i, j) == dist2(j, i)).
  symmetrize_edges(edges);
  return CsrGraph::from_edges(static_cast<NodeId>(n), std::move(edges));
}

}  // namespace sgm::graph
