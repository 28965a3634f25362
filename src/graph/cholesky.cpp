#include "graph/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/check.hpp"

namespace sgm::graph {

namespace {

// Breadth-first level structure rooted at `root`, spanning its connected
// component. `queue` receives the nodes level by level; the return value is
// (number of levels, start of the last level in `queue`). `seen` holds
// per-node stamps so repeated searches need no clearing.
std::pair<std::size_t, std::size_t> level_structure(
    const CsrGraph& g, NodeId root, std::vector<std::uint32_t>& seen,
    std::uint32_t stamp, std::vector<NodeId>& queue) {
  queue.clear();
  queue.push_back(root);
  seen[root] = stamp;
  std::size_t levels = 0, level_begin = 0;
  while (level_begin < queue.size()) {
    ++levels;
    const std::size_t level_end = queue.size();
    for (std::size_t h = level_begin; h < level_end; ++h)
      for (NodeId v : g.neighbors(queue[h]))
        if (seen[v] != stamp) {
          seen[v] = stamp;
          queue.push_back(v);
        }
    if (queue.size() == level_end) break;
    level_begin = level_end;
  }
  return {levels, level_begin};
}

}  // namespace

std::vector<NodeId> rcm_order(const CsrGraph& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<char> placed(n, 0);
  std::vector<std::uint32_t> seen(n, 0);
  std::uint32_t stamp = 0;
  std::vector<NodeId> queue, fresh;
  // (degree, id) order: the tie-break rule of every choice below.
  const auto lighter = [&g](NodeId a, NodeId b) {
    const std::size_t da = g.degree(a), db = g.degree(b);
    return da != db ? da < db : a < b;
  };
  for (NodeId s = 0; s < n; ++s) {
    if (placed[s]) continue;
    // The component of s, and its lightest node as the first root.
    level_structure(g, s, seen, ++stamp, queue);
    NodeId root = *std::min_element(queue.begin(), queue.end(), lighter);
    // George–Liu: move the root to the lightest node of its deepest level
    // while that makes the level structure deeper.
    auto [depth, last] = level_structure(g, root, seen, ++stamp, queue);
    for (;;) {
      const NodeId cand = *std::min_element(
          queue.begin() + static_cast<std::ptrdiff_t>(last), queue.end(),
          lighter);
      const auto [cand_depth, cand_last] =
          level_structure(g, cand, seen, ++stamp, queue);
      if (cand_depth <= depth) break;
      root = cand;
      depth = cand_depth;
      last = cand_last;
    }
    // Cuthill–McKee sweep: visit unplaced neighbours lightest first.
    std::size_t head = order.size();
    order.push_back(root);
    placed[root] = 1;
    while (head < order.size()) {
      fresh.clear();
      for (NodeId v : g.neighbors(order[head++]))
        if (!placed[v]) {
          placed[v] = 1;
          fresh.push_back(v);
        }
      std::sort(fresh.begin(), fresh.end(), lighter);
      order.insert(order.end(), fresh.begin(), fresh.end());
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

EnvelopeCholesky::EnvelopeCholesky(const CsrGraph& g, double sigma) {
  SGM_CHECK_ARG(sigma > 0.0 && std::isfinite(sigma),
                "EnvelopeCholesky: shift must be positive and finite, got ",
                sigma);
  order_ = rcm_order(g);
  const std::size_t n = order_.size();
  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[order_[i]] = i;

  // Envelope shape: row i spans [first_[i], i] in the permuted matrix.
  first_.resize(n);
  row_ptr_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t f = i;
    for (NodeId v : g.neighbors(order_[i])) f = std::min(f, pos[v]);
    first_[i] = f;
    row_ptr_[i + 1] = row_ptr_[i] + (i - f + 1);
  }

  // Lower triangle of P (L + sigma I) P^T, straight from the adjacency.
  values_.assign(row_ptr_[n], 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId u = order_[i];
    double* row = values_.data() + row_ptr_[i];
    row[i - first_[i]] = g.weighted_degree(u) + sigma;
    const auto nbrs = g.neighbors(u);
    const auto w = g.neighbor_weights(u);
    for (std::size_t t = 0; t < nbrs.size(); ++t) {
      const std::size_t j = pos[nbrs[t]];
      if (j < i) row[j - first_[i]] -= w[t];
    }
  }

  // Row-by-row factorization in place. Row i's entries only depend on rows
  // j < i, and the envelope holds all fill: C(i, j) = 0 left of first_[i].
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t fi = first_[i];
    double* ri = values_.data() + row_ptr_[i];
    for (std::size_t j = fi; j < i; ++j) {
      const std::size_t fj = first_[j];
      const double* rj = values_.data() + row_ptr_[j];
      double s = ri[j - fi];
      for (std::size_t k = std::max(fi, fj); k < j; ++k)
        s -= ri[k - fi] * rj[k - fj];
      ri[j - fi] = s / rj[j - fj];
    }
    double d = ri[i - fi];
    for (std::size_t k = fi; k < i; ++k) d -= ri[k - fi] * ri[k - fi];
    SGM_CHECK(d > 0.0 && std::isfinite(d), "EnvelopeCholesky: pivot ", d,
              " at position ", i, " (node ", order_[i], ", sigma ", sigma,
              ") is not positive and finite");
    ri[i - fi] = std::sqrt(d);
  }
}

void EnvelopeCholesky::solve(const Vec& b, Vec& x) const {
  const std::size_t n = order_.size();
  SGM_CHECK_ARG(b.size() == n, "EnvelopeCholesky::solve: rhs has ", b.size(),
                " entries, factor is ", n, " x ", n);
  Vec y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[order_[i]];
  // C y' = P b, row by row.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t fi = first_[i];
    const double* ri = values_.data() + row_ptr_[i];
    double s = y[i];
    for (std::size_t k = fi; k < i; ++k) s -= ri[k - fi] * y[k];
    y[i] = s / ri[i - fi];
  }
  // C^T z = y', column by column (row i of C is column i of C^T).
  for (std::size_t i = n; i-- > 0;) {
    const std::size_t fi = first_[i];
    const double* ri = values_.data() + row_ptr_[i];
    y[i] /= ri[i - fi];
    const double yi = y[i];
    for (std::size_t k = fi; k < i; ++k) y[k] -= ri[k - fi] * yi;
  }
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[order_[i]] = y[i];
}

}  // namespace sgm::graph
