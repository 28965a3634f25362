#pragma once
// Differentiable ops recorded on the Tape. Each function validates shapes
// at record time (so shape bugs surface at the call site rather than inside
// backward()), emits an enum-dispatched node and computes the primal value
// into the node's pooled buffer. The matching vector-Jacobian products live
// in detail::backward_node(), dispatched by Tape::backward().

#include "tensor/matrix.hpp"
#include "tensor/tape.hpp"

namespace sgm::tensor {

/// Elementwise scalar function with analytic derivatives up to order 3.
/// Implementations must be long-lived (the tape stores raw pointers to
/// them); activations in sgm::nn are stateless singletons, which satisfies
/// this.
class ElementwiseFunction {
 public:
  virtual ~ElementwiseFunction() = default;

  /// d^order f / dx^order at x.
  virtual double eval(double x, int order) const = 0;

  /// The derivative ladder over an array: out[k][i] = d^k f / dx^k at x[i]
  /// for k = 0..max_order and i < n, bit for bit what eval(x[i], k)
  /// returns. One call per array lets implementations share subexpressions
  /// (one logistic per element for the whole SiLU ladder) and vectorize the
  /// arithmetic around their libm calls. The default loops eval().
  virtual void eval_orders(const double* x, std::size_t n, int max_order,
                           double* const* out) const {
    for (std::size_t i = 0; i < n; ++i)
      for (int k = 0; k <= max_order; ++k) out[k][i] = eval(x[i], k);
  }
};

/// c = a + b (same shape).
VarId add(Tape& t, VarId a, VarId b);

/// c = a - b (same shape).
VarId sub(Tape& t, VarId a, VarId b);

/// c = a ⊙ b (elementwise, same shape).
VarId mul(Tape& t, VarId a, VarId b);

/// c = s * a (s is a compile-time constant w.r.t. differentiation).
VarId scale(Tape& t, VarId a, double s);

/// c = a + s (elementwise constant shift).
VarId add_scalar(Tape& t, VarId a, double s);

/// c = A * B (matrix product).
VarId matmul(Tape& t, VarId a, VarId b);

/// c = X + 1⊗b : adds row vector b (1 x d) to every row of X (n x d).
VarId add_rowvec(Tape& t, VarId x, VarId b);

/// Fused c = A * W + 1⊗b — one node and one pass over C instead of the
/// matmul + add_rowvec pair. W is (k x d), b is (1 x d).
VarId affine(Tape& t, VarId a, VarId w, VarId b);

/// c = f^(order)(a) applied elementwise. Backward uses f^(order+1).
/// `f` must outlive the tape.
VarId apply(Tape& t, VarId a, const ElementwiseFunction& f, int order = 0);

/// Fused activation sweep: value = f(z), with f', ..., f^(orders) recorded
/// as auxiliary buffers in the SAME sweep over z (one eval_orders call per
/// chunk). orders must be 1..3: backward of the value needs f'; the
/// act_chain / act_curve consumers additionally need f''/f''' (orders >= 2
/// and 3 respectively). Returns the value node.
VarId activation(Tape& t, VarId z, const ElementwiseFunction& f, int orders);

/// Fused first-derivative propagation: c = f'(z) ⊙ zk, where `act` is the
/// activation(t, z, f, orders>=2) node (f' and the f'' its backward needs
/// were precomputed by the sweep).
VarId act_chain(Tape& t, VarId act, VarId zk);

/// Fused Hessian-diagonal propagation: c = f''(z) ⊙ zk² + f'(z) ⊙ hzk,
/// with `act` an activation(t, z, f, orders=3) node.
VarId act_curve(Tape& t, VarId act, VarId zk, VarId hzk);

/// c = a ⊙ a.
VarId square(Tape& t, VarId a);

/// Column j of a as an (n x 1) matrix.
VarId col(Tape& t, VarId a, std::size_t j);

/// Scalar (1x1) mean of all entries.
VarId mean_all(Tape& t, VarId a);

/// Scalar (1x1) sum of all entries.
VarId sum_all(Tape& t, VarId a);

/// Scalar (1x1) weighted mean: sum_i w_i * a_i / n, with constant weights w
/// (same shape as a). Used for per-point loss weighting.
VarId weighted_mean(Tape& t, VarId a, const Matrix& weights);

/// Horizontal concatenation of (n x c1) and (n x c2) into (n x c1+c2).
VarId hcat(Tape& t, VarId a, VarId b);

namespace detail {
/// Op-enum dispatch of the vector-Jacobian products; called by
/// Tape::backward() for every grad-bearing non-leaf node, in reverse
/// topological order. Accumulates into the inputs' grad_buf()s.
void backward_node(Tape& t, VarId id);
}  // namespace detail

}  // namespace sgm::tensor
