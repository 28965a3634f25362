#include "graph/csr.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace sgm::graph {

CsrGraph CsrGraph::from_edges(NodeId num_nodes, std::vector<Edge> edges) {
  CsrGraph g;
  g.num_nodes_ = num_nodes;

  // Normalize to u < v, drop self-loops, merge duplicates by summing weight.
  for (auto& e : edges) {
    SGM_CHECK_BOUNDS(e.u < num_nodes && e.v < num_nodes,
                     "CsrGraph: edge endpoint (", e.u, ", ", e.v,
                     ") out of range for ", num_nodes, " nodes");
    SGM_CHECK_ARG(e.w > 0.0, "CsrGraph: edge weights must be positive, got ",
                  e.w, " on (", e.u, ", ", e.v, ")");
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::erase_if(edges, [](const Edge& e) { return e.u == e.v; });
  const auto less = [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  const auto not_less = [&](const Edge& a, const Edge& b) {
    return !less(a, b);
  };
  if (std::adjacent_find(edges.begin(), edges.end(), not_less) ==
      edges.end()) {
    // Already strictly sorted, so unique: nothing to sort or merge. The copy
    // is sized to the list, not to the caller's (possibly larger) capacity.
    g.edges_.assign(edges.begin(), edges.end());
  } else {
    std::sort(edges.begin(), edges.end(), less);
    for (const auto& e : edges) {
      if (!g.edges_.empty() && g.edges_.back().u == e.u &&
          g.edges_.back().v == e.v) {
        g.edges_.back().w += e.w;
      } else {
        g.edges_.push_back(e);
      }
    }
  }
  std::vector<Edge>().swap(edges);  // freed before the CSR arrays grow

  // CSR assembly (each unique edge appears in both endpoints' rows).
  g.offsets_.assign(num_nodes + 1, 0);
  for (const auto& e : g.edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (NodeId i = 0; i < num_nodes; ++i) g.offsets_[i + 1] += g.offsets_[i];
  g.nbr_.resize(g.offsets_[num_nodes]);
  g.nbr_w_.resize(g.offsets_[num_nodes]);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : g.edges_) {
    g.nbr_[cursor[e.u]] = e.v;
    g.nbr_w_[cursor[e.u]++] = e.w;
    g.nbr_[cursor[e.v]] = e.u;
    g.nbr_w_[cursor[e.v]++] = e.w;
  }

  g.wdeg_.assign(num_nodes, 0.0);
  for (const auto& e : g.edges_) {
    g.wdeg_[e.u] += e.w;
    g.wdeg_[e.v] += e.w;
  }
  SGM_AUDIT(g.audit());
  return g;
}

void CsrGraph::audit() const {
  audit_csr_arrays(num_nodes_, edges_, offsets_, nbr_, nbr_w_, wdeg_);
}

void audit_csr_arrays(NodeId num_nodes, const std::vector<Edge>& edges,
                      const std::vector<std::size_t>& offsets,
                      const std::vector<NodeId>& nbr,
                      const std::vector<double>& nbr_w,
                      const std::vector<double>& wdeg) {
  // Canonical edge list: u < v, strictly sorted (so unique), positive w.
  for (EdgeId i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    SGM_CHECK(e.u < e.v, "edge ", i, " not canonical: (", e.u, ", ", e.v, ")");
    SGM_CHECK(e.v < num_nodes, "edge ", i, " endpoint ", e.v,
              " out of range for ", num_nodes, " nodes");
    SGM_CHECK(e.w > 0.0, "edge ", i, " weight ", e.w, " not positive");
    if (i > 0) {
      const Edge& p = edges[i - 1];
      SGM_CHECK(p.u < e.u || (p.u == e.u && p.v < e.v),
                "edge list not strictly sorted at ", i);
    }
  }

  // CSR shape: monotone offsets covering exactly 2|E| adjacency slots.
  SGM_CHECK(offsets.size() == static_cast<std::size_t>(num_nodes) + 1,
            "offsets size ", offsets.size(), " != num_nodes + 1");
  SGM_CHECK(offsets.empty() || offsets.front() == 0, "offsets[0] != 0");
  for (NodeId u = 0; u < num_nodes; ++u)
    SGM_CHECK(offsets[u] <= offsets[u + 1], "offsets not monotone at ", u);
  SGM_CHECK(offsets[num_nodes] == 2 * edges.size(),
            "offsets[n] = ", offsets[num_nodes], " != 2|E| = ",
            2 * edges.size());
  SGM_CHECK(nbr.size() == 2 * edges.size(), "nbr size mismatch");
  SGM_CHECK(nbr_w.size() == 2 * edges.size(), "nbr_w size mismatch");

  // Adjacency consistency + symmetry: every slot of u's row names an edge
  // (u, v) of the list and carries its weight, and each edge appears exactly
  // once in its u row and once in its v row.
  const auto less = [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  std::vector<int> seen(edges.size(), 0);
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (std::size_t s = offsets[u]; s < offsets[u + 1]; ++s) {
      const NodeId other = nbr[s];
      const Edge key{std::min(u, other), std::max(u, other), 0.0};
      const auto it = std::lower_bound(edges.begin(), edges.end(), key, less);
      SGM_CHECK(it != edges.end() && it->u == key.u && it->v == key.v,
                "nbr slot ", s, " of row ", u, " names ", other,
                ", but the edge list has no edge (", key.u, ", ", key.v, ")");
      SGM_CHECK(nbr_w[s] == it->w, "nbr slot ", s, " of row ", u,
                " carries weight ", nbr_w[s], " but edge (", key.u, ", ",
                key.v, ") has ", it->w);
      seen[static_cast<std::size_t>(it - edges.begin())] +=
          u == key.u ? 1 : 2;
    }
  }
  for (EdgeId i = 0; i < edges.size(); ++i)
    SGM_CHECK(seen[i] == 3, "edge ", i,
              " is not in each endpoint's row exactly once (symmetry)");

  // Weighted degrees re-derivable from the edge list.
  SGM_CHECK(wdeg.size() == num_nodes, "wdeg size mismatch");
  std::vector<double> expect(num_nodes, 0.0);
  for (const Edge& e : edges) {
    expect[e.u] += e.w;
    expect[e.v] += e.w;
  }
  for (NodeId u = 0; u < num_nodes; ++u)
    SGM_CHECK(wdeg[u] == expect[u], "wdeg[", u, "] = ", wdeg[u],
              " != recomputed ", expect[u]);
}

double CsrGraph::average_degree() const {
  if (num_nodes_ == 0) return 0.0;
  return 2.0 * static_cast<double>(edges_.size()) /
         static_cast<double>(num_nodes_);
}

double CsrGraph::total_weight() const {
  double s = 0.0;
  for (const auto& e : edges_) s += e.w;
  return s;
}

std::pair<std::vector<NodeId>, NodeId> CsrGraph::connected_components() const {
  std::vector<NodeId> label(num_nodes_, num_nodes_);
  NodeId next = 0;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < num_nodes_; ++s) {
    if (label[s] != num_nodes_) continue;
    label[s] = next;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : neighbors(u)) {
        if (label[v] == num_nodes_) {
          label[v] = next;
          stack.push_back(v);
        }
      }
    }
    ++next;
  }
  return {std::move(label), next};
}

bool CsrGraph::is_connected() const {
  if (num_nodes_ <= 1) return true;
  return connected_components().second == 1;
}

}  // namespace sgm::graph
