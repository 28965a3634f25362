#include "graph/laplacian.hpp"

#include <cmath>
#include <stdexcept>

namespace sgm::graph {

void laplacian_apply(const CsrGraph& g, const Vec& x, Vec& y) {
  const std::size_t n = g.num_nodes();
  if (x.size() != n) throw std::invalid_argument("laplacian_apply: size");
  y.assign(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = g.neighbors(u);
    const auto w = g.neighbor_weights(u);
    double acc = g.weighted_degree(u) * x[u];
    for (std::size_t t = 0; t < nbrs.size(); ++t) acc -= w[t] * x[nbrs[t]];
    y[u] = acc;
  }
}

tensor::Matrix laplacian_dense(const CsrGraph& g) {
  const std::size_t n = g.num_nodes();
  tensor::Matrix l(n, n);
  for (const auto& e : g.edges()) {
    l(e.u, e.u) += e.w;
    l(e.v, e.v) += e.w;
    l(e.u, e.v) -= e.w;
    l(e.v, e.u) -= e.w;
  }
  return l;
}

void deflate_constant(Vec& x) {
  if (x.empty()) return;
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(x.size());
  for (double& v : x) v -= mean;
}

double dot(const Vec& a, const Vec& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const Vec& a) { return std::sqrt(dot(a, a)); }

}  // namespace sgm::graph
