#include "nn/activation.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace sgm::nn {

namespace {
inline double logistic(double x) {
  // Numerically stable for large |x|.
  if (x >= 0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

// logistic() split at its exp for the sweeps: the same exp argument (-x for
// x >= 0, else x — that is -|x|, and NaN passes through as it does above)
// and the same division, selected without a branch.
inline double logistic_exp(double x) { return std::exp(x >= 0 ? -x : x); }
inline double logistic_from(double x, double e) {
  return (x >= 0 ? 1.0 : e) / (1.0 + e);
}

// Elements per stack chunk of a sweep; the staged heads stay in L1.
constexpr std::size_t kSweepChunk = 64;

// An eval_orders sweep in two passes per stack chunk: head(x) for every
// element first (the libm calls, staged), then ladder(x, head), which
// returns {f, f', f'', f'''} from plain arithmetic without branches that the
// compiler vectorizes; orders 0..K are stored. Each ladder spells out the
// same IEEE operations as its class's eval(), so every value matches eval
// bit for bit.
template <int K, class Head, class Ladder>
void sweep(const double* x, std::size_t n, double* const* out, Head head,
           Ladder ladder) {
  decltype(head(0.0)) staged[kSweepChunk];
  for (std::size_t c0 = 0; c0 < n; c0 += kSweepChunk) {
    const std::size_t m = std::min(kSweepChunk, n - c0);
    for (std::size_t i = 0; i < m; ++i) staged[i] = head(x[c0 + i]);
    for (std::size_t i = 0; i < m; ++i) {
      const std::array<double, 4> d = ladder(x[c0 + i], staged[i]);
      for (int k = 0; k <= K; ++k) out[k][c0 + i] = d[k];
    }
  }
}

template <class Head, class Ladder>
void sweep(const double* x, std::size_t n, int max_order, double* const* out,
           Head head, Ladder ladder) {
  switch (max_order) {
    case 0: return sweep<0>(x, n, out, head, ladder);
    case 1: return sweep<1>(x, n, out, head, ladder);
    case 2: return sweep<2>(x, n, out, head, ladder);
    case 3: return sweep<3>(x, n, out, head, ladder);
    default:
      throw std::invalid_argument("eval_orders: max_order must be 0..3");
  }
}
}  // namespace

double Silu::eval(double x, int order) const {
  const double s = logistic(x);
  const double s1 = s * (1.0 - s);          // sigma'
  const double s2 = s1 * (1.0 - 2.0 * s);   // sigma''
  switch (order) {
    case 0: return x * s;
    case 1: return s + x * s1;
    case 2: return 2.0 * s1 + x * s2;
    case 3: {
      const double s3 = s2 * (1.0 - 2.0 * s) - 2.0 * s1 * s1;  // sigma'''
      return 3.0 * s2 + x * s3;
    }
    default:
      throw std::invalid_argument("Silu: derivative order > 3 not supported");
  }
}

void Silu::eval_orders(const double* x, std::size_t n, int max_order,
                       double* const* out) const {
  sweep(x, n, max_order, out, logistic_exp, [](double xi, double e) {
    const double s = logistic_from(xi, e);
    const double s1 = s * (1.0 - s);
    const double s2 = s1 * (1.0 - 2.0 * s);
    const double s3 = s2 * (1.0 - 2.0 * s) - 2.0 * s1 * s1;
    return std::array<double, 4>{xi * s, s + xi * s1, 2.0 * s1 + xi * s2,
                                 3.0 * s2 + xi * s3};
  });
}

double Tanh::eval(double x, int order) const {
  const double f = std::tanh(x);
  const double g = 1.0 - f * f;  // f'
  switch (order) {
    case 0: return f;
    case 1: return g;
    case 2: return -2.0 * f * g;
    case 3: return -2.0 * g * (1.0 - 3.0 * f * f);
    default:
      throw std::invalid_argument("Tanh: derivative order > 3 not supported");
  }
}

void Tanh::eval_orders(const double* x, std::size_t n, int max_order,
                       double* const* out) const {
  sweep(
      x, n, max_order, out, [](double xi) { return std::tanh(xi); },
      [](double, double f) {
        const double g = 1.0 - f * f;
        return std::array<double, 4>{f, g, -2.0 * f * g,
                                     -2.0 * g * (1.0 - 3.0 * f * f)};
      });
}

double Sigmoid::eval(double x, int order) const {
  const double s = logistic(x);
  const double s1 = s * (1.0 - s);
  switch (order) {
    case 0: return s;
    case 1: return s1;
    case 2: return s1 * (1.0 - 2.0 * s);
    case 3: return s1 * (1.0 - 2.0 * s) * (1.0 - 2.0 * s) - 2.0 * s1 * s1;
    default:
      throw std::invalid_argument(
          "Sigmoid: derivative order > 3 not supported");
  }
}

void Sigmoid::eval_orders(const double* x, std::size_t n, int max_order,
                          double* const* out) const {
  sweep(x, n, max_order, out, logistic_exp, [](double xi, double e) {
    const double s = logistic_from(xi, e);
    const double s1 = s * (1.0 - s);
    return std::array<double, 4>{
        s, s1, s1 * (1.0 - 2.0 * s),
        s1 * (1.0 - 2.0 * s) * (1.0 - 2.0 * s) - 2.0 * s1 * s1};
  });
}

double Sine::eval(double x, int order) const {
  const double w = w0_;
  const double a = w * x;
  switch (order) {
    case 0: return std::sin(a);
    case 1: return w * std::cos(a);
    case 2: return -w * w * std::sin(a);
    case 3: return -w * w * w * std::cos(a);
    default:
      throw std::invalid_argument("Sine: derivative order > 3 not supported");
  }
}

void Sine::eval_orders(const double* x, std::size_t n, int max_order,
                       double* const* out) const {
  const double w = w0_;
  sweep(
      x, n, max_order, out,
      [w](double xi) {
        return std::array<double, 2>{std::sin(w * xi), std::cos(w * xi)};
      },
      [w](double, std::array<double, 2> sc) {
        return std::array<double, 4>{sc[0], w * sc[1], -w * w * sc[0],
                                     -w * w * w * sc[1]};
      });
}

double Identity::eval(double x, int order) const {
  switch (order) {
    case 0: return x;
    case 1: return 1.0;
    default: return 0.0;
  }
}

const Activation& silu() {
  static const Silu a;
  return a;
}
const Activation& tanh_act() {
  static const Tanh a;
  return a;
}
const Activation& sigmoid_act() {
  static const Sigmoid a;
  return a;
}
const Activation& sine_act() {
  static const Sine a;
  return a;
}
const Activation& identity_act() {
  static const Identity a;
  return a;
}

const Activation& activation_by_name(const std::string& name) {
  if (name == "silu") return silu();
  if (name == "tanh") return tanh_act();
  if (name == "sigmoid") return sigmoid_act();
  if (name == "sine") return sine_act();
  if (name == "identity") return identity_act();
  throw std::invalid_argument("unknown activation: " + name);
}

}  // namespace sgm::nn
