#include "tensor/ops.hpp"

#include <stdexcept>
#include <string>

namespace sgm::tensor {

namespace {

void check_same_shape(const Tape& t, VarId a, VarId b, const char* op) {
  if (!t.value(a).same_shape(t.value(b)))
    throw std::invalid_argument(std::string(op) + ": shape mismatch");
}

// -------------------------------------------------------- backward helpers

// grad(in) += alpha * g.
void axpy_grad(Tape& t, VarId in, const Matrix& g, double alpha) {
  if (in == kNoVar || !t.requires_grad(in)) return;
  Matrix& gb = t.grad_buf(in);
  const double* gp = g.data();
  double* o = gb.data();
  t.parallel_range(g.size(), Tape::kPointwiseWork,
                   [&](std::size_t b, std::size_t e) {
                     for (std::size_t i = b; i < e; ++i) o[i] += alpha * gp[i];
                   });
}

// grad(in) += g ⊙ other.
void prod_grad(Tape& t, VarId in, const Matrix& g, const Matrix& other) {
  if (in == kNoVar || !t.requires_grad(in)) return;
  Matrix& gb = t.grad_buf(in);
  const double* gp = g.data();
  const double* op = other.data();
  double* o = gb.data();
  t.parallel_range(g.size(), Tape::kPointwiseWork,
                   [&](std::size_t b, std::size_t e) {
                     for (std::size_t i = b; i < e; ++i) o[i] += gp[i] * op[i];
                   });
}

// grad(bias) (1 x d) += column sums of g. Serial: d is a network width and
// the serial pass keeps the reduction order thread-count-independent.
void colsum_grad(Tape& t, VarId bias, const Matrix& g) {
  if (bias == kNoVar || !t.requires_grad(bias)) return;
  Matrix& gb = t.grad_buf(bias);
  for (std::size_t r = 0; r < g.rows(); ++r) {
    const double* grow = g.row(r);
    double* out = gb.row(0);
    for (std::size_t c = 0; c < g.cols(); ++c) out[c] += grow[c];
  }
}

// grad(a) += g · value(b)^T, threaded over the rows of grad(a). The right
// operand is transposed once into the op node's pooled scratch so the
// product runs through the fast NN kernel instead of the strided NT shape.
void matmul_grad_left(Tape& t, TapeNode& n, VarId a, const Matrix& g,
                      const Matrix& bv) {
  if (!t.requires_grad(a)) return;
  Matrix& bt = n.aux[0];
  transpose_into(bv, bt);
  Matrix& ga = t.grad_buf(a);
  t.parallel_range(ga.rows(), g.cols() * bt.cols(),
                   [&](std::size_t b, std::size_t e) {
                     gemm_nn(g, bt, ga, b, e, /*accumulate=*/true);
                   });
}

// grad(b) += value(a)^T · g, threaded over the rows of grad(b).
void matmul_grad_right(Tape& t, VarId b, const Matrix& av, const Matrix& g) {
  if (!t.requires_grad(b)) return;
  Matrix& gb = t.grad_buf(b);
  t.parallel_range(gb.rows(), av.rows() * g.cols(),
                   [&](std::size_t rb, std::size_t re) {
                     gemm_tn(av, g, gb, rb, re, /*accumulate=*/true);
                   });
}

}  // namespace

// ------------------------------------------------------------------- add --

VarId add(Tape& t, VarId a, VarId b) {
  check_same_shape(t, a, b, "add");
  const VarId id = t.emit(Op::kAdd, a, b);
  const Matrix& av = t.value(a);
  const Matrix& bv = t.value(b);
  Matrix& v = t.mutable_value(id);
  v.resize(av.rows(), av.cols());
  const double* ap = av.data();
  const double* bp = bv.data();
  double* vp = v.data();
  t.parallel_range(v.size(), Tape::kPointwiseWork,
                   [&](std::size_t b0, std::size_t e) {
                     for (std::size_t i = b0; i < e; ++i) vp[i] = ap[i] + bp[i];
                   });
  return id;
}

VarId sub(Tape& t, VarId a, VarId b) {
  check_same_shape(t, a, b, "sub");
  const VarId id = t.emit(Op::kSub, a, b);
  const Matrix& av = t.value(a);
  const Matrix& bv = t.value(b);
  Matrix& v = t.mutable_value(id);
  v.resize(av.rows(), av.cols());
  const double* ap = av.data();
  const double* bp = bv.data();
  double* vp = v.data();
  t.parallel_range(v.size(), Tape::kPointwiseWork,
                   [&](std::size_t b0, std::size_t e) {
                     for (std::size_t i = b0; i < e; ++i) vp[i] = ap[i] - bp[i];
                   });
  return id;
}

VarId mul(Tape& t, VarId a, VarId b) {
  check_same_shape(t, a, b, "mul");
  const VarId id = t.emit(Op::kMul, a, b);
  const Matrix& av = t.value(a);
  const Matrix& bv = t.value(b);
  Matrix& v = t.mutable_value(id);
  v.resize(av.rows(), av.cols());
  const double* ap = av.data();
  const double* bp = bv.data();
  double* vp = v.data();
  t.parallel_range(v.size(), Tape::kPointwiseWork,
                   [&](std::size_t b0, std::size_t e) {
                     for (std::size_t i = b0; i < e; ++i) vp[i] = ap[i] * bp[i];
                   });
  return id;
}

VarId scale(Tape& t, VarId a, double s) {
  const VarId id = t.emit(Op::kScale, a);
  t.node(id).scalar = s;
  const Matrix& av = t.value(a);
  Matrix& v = t.mutable_value(id);
  v.resize(av.rows(), av.cols());
  const double* ap = av.data();
  double* vp = v.data();
  t.parallel_range(v.size(), Tape::kPointwiseWork,
                   [&](std::size_t b0, std::size_t e) {
                     for (std::size_t i = b0; i < e; ++i) vp[i] = s * ap[i];
                   });
  return id;
}

VarId add_scalar(Tape& t, VarId a, double s) {
  const VarId id = t.emit(Op::kAddScalar, a);
  t.node(id).scalar = s;
  const Matrix& av = t.value(a);
  Matrix& v = t.mutable_value(id);
  v.resize(av.rows(), av.cols());
  const double* ap = av.data();
  double* vp = v.data();
  t.parallel_range(v.size(), Tape::kPointwiseWork,
                   [&](std::size_t b0, std::size_t e) {
                     for (std::size_t i = b0; i < e; ++i) vp[i] = ap[i] + s;
                   });
  return id;
}

// ---------------------------------------------------------------- matmul --

VarId matmul(Tape& t, VarId a, VarId b) {
  const Matrix& av0 = t.value(a);
  const Matrix& bv0 = t.value(b);
  if (av0.cols() != bv0.rows())
    throw std::invalid_argument("matmul: inner dimension mismatch (" +
                                std::to_string(av0.rows()) + "x" +
                                std::to_string(av0.cols()) + " vs " +
                                std::to_string(bv0.rows()) + "x" +
                                std::to_string(bv0.cols()) + ")");
  const VarId id = t.emit(Op::kMatmul, a, b);
  const Matrix& av = t.value(a);
  const Matrix& bv = t.value(b);
  Matrix& v = t.mutable_value(id);
  v.resize(av.rows(), bv.cols());
  t.parallel_range(v.rows(), av.cols() * bv.cols(),
                   [&](std::size_t rb, std::size_t re) {
                     gemm_nn(av, bv, v, rb, re, /*accumulate=*/false);
                   });
  return id;
}

VarId add_rowvec(Tape& t, VarId x, VarId b) {
  if (t.value(b).rows() != 1 || t.value(b).cols() != t.value(x).cols())
    throw std::invalid_argument("add_rowvec: b must be 1 x cols(x)");
  const VarId id = t.emit(Op::kAddRowvec, x, b);
  const Matrix& xv = t.value(x);
  const Matrix& bv = t.value(b);
  Matrix& v = t.mutable_value(id);
  v.resize(xv.rows(), xv.cols());
  const double* brow = bv.row(0);
  t.parallel_range(v.rows(), v.cols() * Tape::kPointwiseWork,
                   [&](std::size_t rb, std::size_t re) {
                     for (std::size_t r = rb; r < re; ++r) {
                       const double* xrow = xv.row(r);
                       double* vrow = v.row(r);
                       for (std::size_t c = 0; c < v.cols(); ++c)
                         vrow[c] = xrow[c] + brow[c];
                     }
                   });
  return id;
}

VarId affine(Tape& t, VarId a, VarId w, VarId b) {
  const Matrix& av0 = t.value(a);
  const Matrix& wv0 = t.value(w);
  const Matrix& bv0 = t.value(b);
  if (av0.cols() != wv0.rows())
    throw std::invalid_argument("affine: inner dimension mismatch");
  if (bv0.rows() != 1 || bv0.cols() != wv0.cols())
    throw std::invalid_argument("affine: bias must be 1 x cols(w)");
  const VarId id = t.emit(Op::kAffine, a, w, b);
  const Matrix& av = t.value(a);
  const Matrix& wv = t.value(w);
  const Matrix& bv = t.value(b);
  Matrix& v = t.mutable_value(id);
  v.resize(av.rows(), wv.cols());
  const double* brow = bv.row(0);
  t.parallel_range(v.rows(), av.cols() * wv.cols(),
                   [&](std::size_t rb, std::size_t re) {
                     gemm_nn(av, wv, v, rb, re, /*accumulate=*/false);
                     for (std::size_t r = rb; r < re; ++r) {
                       double* vrow = v.row(r);
                       for (std::size_t c = 0; c < v.cols(); ++c)
                         vrow[c] += brow[c];
                     }
                   });
  return id;
}

// ----------------------------------------------------------- elementwise --

VarId apply(Tape& t, VarId a, const ElementwiseFunction& f, int order) {
  const VarId id = t.emit(Op::kApply, a);
  t.node(id).fn = &f;
  t.node(id).order = order;
  const Matrix& av = t.value(a);
  Matrix& v = t.mutable_value(id);
  v.resize(av.rows(), av.cols());
  const double* ap = av.data();
  double* vp = v.data();
  t.parallel_range(v.size(), Tape::kTranscendentalWork,
                   [&](std::size_t b0, std::size_t e) {
                     for (std::size_t i = b0; i < e; ++i)
                       vp[i] = f.eval(ap[i], order);
                   });
  return id;
}

VarId activation(Tape& t, VarId z, const ElementwiseFunction& f, int orders) {
  if (orders < 1 || orders > 3)
    throw std::invalid_argument("activation: orders must be 1..3");
  const VarId id = t.emit(Op::kActivation, z);
  TapeNode& n = t.node(id);
  n.fn = &f;
  n.index = static_cast<std::uint32_t>(orders);
  const Matrix& zv = t.value(z);
  n.value.resize(zv.rows(), zv.cols());
  for (int k = 0; k < orders; ++k) n.aux[k].resize(zv.rows(), zv.cols());
  const double* zp = zv.data();
  double* out[4] = {n.value.data()};
  for (int k = 0; k < orders; ++k) out[k + 1] = n.aux[k].data();
  t.parallel_range(zv.size(), Tape::kTranscendentalWork,
                   [&](std::size_t b0, std::size_t e) {
                     double* chunk[4] = {};
                     for (int k = 0; k <= orders; ++k) chunk[k] = out[k] + b0;
                     f.eval_orders(zp + b0, e - b0, orders, chunk);
                   });
  return id;
}

VarId act_chain(Tape& t, VarId act, VarId zk) {
  const TapeNode& an = t.node(act);
  if (an.op != Op::kActivation || an.index < 2)
    throw std::invalid_argument(
        "act_chain: act must be an activation node with orders >= 2");
  check_same_shape(t, act, zk, "act_chain");
  const VarId id = t.emit(Op::kActChain, an.in[0], zk, kNoVar, act);
  const Matrix& s1 = t.node(act).aux[0];
  const Matrix& zkv = t.value(zk);
  Matrix& v = t.mutable_value(id);
  v.resize(zkv.rows(), zkv.cols());
  const double* s1p = s1.data();
  const double* zp = zkv.data();
  double* vp = v.data();
  t.parallel_range(v.size(), Tape::kPointwiseWork,
                   [&](std::size_t b0, std::size_t e) {
                     for (std::size_t i = b0; i < e; ++i)
                       vp[i] = s1p[i] * zp[i];
                   });
  return id;
}

VarId act_curve(Tape& t, VarId act, VarId zk, VarId hzk) {
  const TapeNode& an = t.node(act);
  if (an.op != Op::kActivation || an.index < 3)
    throw std::invalid_argument(
        "act_curve: act must be an activation node with orders = 3");
  check_same_shape(t, act, zk, "act_curve");
  check_same_shape(t, act, hzk, "act_curve");
  const VarId id = t.emit(Op::kActCurve, an.in[0], zk, hzk, act);
  const Matrix& s1 = t.node(act).aux[0];
  const Matrix& s2 = t.node(act).aux[1];
  const Matrix& zkv = t.value(zk);
  const Matrix& hzkv = t.value(hzk);
  Matrix& v = t.mutable_value(id);
  v.resize(zkv.rows(), zkv.cols());
  const double* s1p = s1.data();
  const double* s2p = s2.data();
  const double* zp = zkv.data();
  const double* hp = hzkv.data();
  double* vp = v.data();
  t.parallel_range(v.size(), Tape::kPointwiseWork,
                   [&](std::size_t b0, std::size_t e) {
                     for (std::size_t i = b0; i < e; ++i)
                       vp[i] = s2p[i] * zp[i] * zp[i] + s1p[i] * hp[i];
                   });
  return id;
}

VarId square(Tape& t, VarId a) {
  const VarId id = t.emit(Op::kSquare, a);
  const Matrix& av = t.value(a);
  Matrix& v = t.mutable_value(id);
  v.resize(av.rows(), av.cols());
  const double* ap = av.data();
  double* vp = v.data();
  t.parallel_range(v.size(), Tape::kPointwiseWork,
                   [&](std::size_t b0, std::size_t e) {
                     for (std::size_t i = b0; i < e; ++i) vp[i] = ap[i] * ap[i];
                   });
  return id;
}

// ------------------------------------------------------- slices / concat --

VarId col(Tape& t, VarId a, std::size_t j) {
  if (j >= t.value(a).cols())
    throw std::out_of_range("col: column out of range");
  const VarId id = t.emit(Op::kCol, a);
  t.node(id).index = static_cast<std::uint32_t>(j);
  const Matrix& av = t.value(a);
  Matrix& v = t.mutable_value(id);
  v.resize(av.rows(), 1);
  for (std::size_t r = 0; r < av.rows(); ++r) v(r, 0) = av(r, j);
  return id;
}

VarId hcat(Tape& t, VarId a, VarId b) {
  if (t.value(a).rows() != t.value(b).rows())
    throw std::invalid_argument("hcat: row count mismatch");
  const VarId id = t.emit(Op::kHcat, a, b);
  const Matrix& av = t.value(a);
  const Matrix& bv = t.value(b);
  t.node(id).index = static_cast<std::uint32_t>(av.cols());
  Matrix& v = t.mutable_value(id);
  v.resize(av.rows(), av.cols() + bv.cols());
  t.parallel_range(
      v.rows(), v.cols() * Tape::kPointwiseWork,
      [&](std::size_t rb, std::size_t re) {
        for (std::size_t r = rb; r < re; ++r) {
          double* vrow = v.row(r);
          const double* arow = av.row(r);
          const double* brow = bv.row(r);
          for (std::size_t c = 0; c < av.cols(); ++c) vrow[c] = arow[c];
          for (std::size_t c = 0; c < bv.cols(); ++c)
            vrow[av.cols() + c] = brow[c];
        }
      });
  return id;
}

// -------------------------------------------------------------- reductions --
// Reductions run serially in element order: their cost is linear and a fixed
// summation order keeps results byte-identical at any thread count.

VarId mean_all(Tape& t, VarId a) {
  if (t.value(a).size() == 0)
    throw std::invalid_argument("mean_all: empty matrix");
  const VarId id = t.emit(Op::kMeanAll, a);
  const Matrix& av = t.value(a);
  t.node(id).scalar = 1.0 / static_cast<double>(av.size());
  Matrix& v = t.mutable_value(id);
  v.resize(1, 1);
  v(0, 0) = av.sum() * t.node(id).scalar;
  return id;
}

VarId sum_all(Tape& t, VarId a) {
  const VarId id = t.emit(Op::kSumAll, a);
  t.node(id).scalar = 1.0;
  Matrix& v = t.mutable_value(id);
  v.resize(1, 1);
  v(0, 0) = t.value(a).sum();
  return id;
}

VarId weighted_mean(Tape& t, VarId a, const Matrix& weights) {
  if (!t.value(a).same_shape(weights))
    throw std::invalid_argument("weighted_mean: shape mismatch");
  const VarId id = t.emit(Op::kWeightedMean, a);
  TapeNode& n = t.node(id);
  n.aux[0] = weights;  // pooled copy
  n.scalar = 1.0 / static_cast<double>(weights.size());
  const Matrix& av = t.value(a);
  double s = 0.0;
  for (std::size_t i = 0; i < av.size(); ++i)
    s += av.data()[i] * weights.data()[i];
  Matrix& v = t.mutable_value(id);
  v.resize(1, 1);
  v(0, 0) = s * n.scalar;
  return id;
}

// ---------------------------------------------------------------- backward --

namespace detail {

void backward_node(Tape& t, VarId id) {
  TapeNode& n = t.node(id);
  const Matrix& g = n.grad;
  switch (n.op) {
    case Op::kLeaf:
      break;
    case Op::kAdd:
      axpy_grad(t, n.in[0], g, 1.0);
      axpy_grad(t, n.in[1], g, 1.0);
      break;
    case Op::kSub:
      axpy_grad(t, n.in[0], g, 1.0);
      axpy_grad(t, n.in[1], g, -1.0);
      break;
    case Op::kMul:
      prod_grad(t, n.in[0], g, t.value(n.in[1]));
      prod_grad(t, n.in[1], g, t.value(n.in[0]));
      break;
    case Op::kScale:
      axpy_grad(t, n.in[0], g, n.scalar);
      break;
    case Op::kAddScalar:
      axpy_grad(t, n.in[0], g, 1.0);
      break;
    case Op::kMatmul:
      matmul_grad_left(t, n, n.in[0], g, t.value(n.in[1]));
      matmul_grad_right(t, n.in[1], t.value(n.in[0]), g);
      break;
    case Op::kAffine:
      matmul_grad_left(t, n, n.in[0], g, t.value(n.in[1]));
      matmul_grad_right(t, n.in[1], t.value(n.in[0]), g);
      colsum_grad(t, n.in[2], g);
      break;
    case Op::kAddRowvec:
      axpy_grad(t, n.in[0], g, 1.0);
      colsum_grad(t, n.in[1], g);
      break;
    case Op::kApply: {
      const VarId a = n.in[0];
      if (!t.requires_grad(a)) break;
      const Matrix& av = t.value(a);
      Matrix& ga = t.grad_buf(a);
      const ElementwiseFunction* f = n.fn;
      const int next = n.order + 1;
      const double* ap = av.data();
      const double* gp = g.data();
      double* o = ga.data();
      t.parallel_range(g.size(), Tape::kTranscendentalWork,
                       [&](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i)
                           o[i] += gp[i] * f->eval(ap[i], next);
                       });
      break;
    }
    case Op::kActivation:
      // d f(z) / dz = f'(z), precomputed by the sweep.
      prod_grad(t, n.in[0], g, n.aux[0]);
      break;
    case Op::kActChain: {
      // value = f'(z) ⊙ zk.
      const TapeNode& act = t.node(n.ref);
      const VarId z = n.in[0], zk = n.in[1];
      const Matrix& zkv = t.value(zk);
      if (t.requires_grad(z)) {
        Matrix& gz = t.grad_buf(z);
        const double* s2p = act.aux[1].data();
        const double* zkp = zkv.data();
        const double* gp = g.data();
        double* o = gz.data();
        t.parallel_range(g.size(), Tape::kPointwiseWork,
                         [&](std::size_t b, std::size_t e) {
                           for (std::size_t i = b; i < e; ++i)
                             o[i] += gp[i] * s2p[i] * zkp[i];
                         });
      }
      prod_grad(t, zk, g, act.aux[0]);
      break;
    }
    case Op::kActCurve: {
      // value = f''(z) ⊙ zk² + f'(z) ⊙ hzk.
      const TapeNode& act = t.node(n.ref);
      const VarId z = n.in[0], zk = n.in[1], hzk = n.in[2];
      const Matrix& zkv = t.value(zk);
      const Matrix& hzkv = t.value(hzk);
      const double* gp = g.data();
      if (t.requires_grad(z)) {
        Matrix& gz = t.grad_buf(z);
        const double* s2p = act.aux[1].data();
        const double* s3p = act.aux[2].data();
        const double* zkp = zkv.data();
        const double* hp = hzkv.data();
        double* o = gz.data();
        t.parallel_range(
            g.size(), Tape::kPointwiseWork, [&](std::size_t b, std::size_t e) {
              for (std::size_t i = b; i < e; ++i)
                o[i] += gp[i] * (s3p[i] * zkp[i] * zkp[i] + s2p[i] * hp[i]);
            });
      }
      if (t.requires_grad(zk)) {
        Matrix& gzk = t.grad_buf(zk);
        const double* s2p = act.aux[1].data();
        const double* zkp = zkv.data();
        double* o = gzk.data();
        t.parallel_range(g.size(), Tape::kPointwiseWork,
                         [&](std::size_t b, std::size_t e) {
                           for (std::size_t i = b; i < e; ++i)
                             o[i] += 2.0 * gp[i] * s2p[i] * zkp[i];
                         });
      }
      prod_grad(t, hzk, g, act.aux[0]);
      break;
    }
    case Op::kSquare: {
      const VarId a = n.in[0];
      if (!t.requires_grad(a)) break;
      const Matrix& av = t.value(a);
      Matrix& ga = t.grad_buf(a);
      const double* ap = av.data();
      const double* gp = g.data();
      double* o = ga.data();
      t.parallel_range(g.size(), Tape::kPointwiseWork,
                       [&](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i)
                           o[i] += 2.0 * gp[i] * ap[i];
                       });
      break;
    }
    case Op::kCol: {
      const VarId a = n.in[0];
      if (!t.requires_grad(a)) break;
      Matrix& ga = t.grad_buf(a);
      const std::size_t j = n.index;
      for (std::size_t r = 0; r < g.rows(); ++r) ga(r, j) += g(r, 0);
      break;
    }
    case Op::kMeanAll:
    case Op::kSumAll: {
      const VarId a = n.in[0];
      if (!t.requires_grad(a)) break;
      Matrix& ga = t.grad_buf(a);
      const double gv = g(0, 0) * n.scalar;
      double* o = ga.data();
      t.parallel_range(ga.size(), Tape::kPointwiseWork,
                       [&](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i) o[i] += gv;
                       });
      break;
    }
    case Op::kWeightedMean: {
      const VarId a = n.in[0];
      if (!t.requires_grad(a)) break;
      Matrix& ga = t.grad_buf(a);
      const double gv = g(0, 0) * n.scalar;
      const double* wp = n.aux[0].data();
      double* o = ga.data();
      t.parallel_range(ga.size(), Tape::kPointwiseWork,
                       [&](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i)
                           o[i] += gv * wp[i];
                       });
      break;
    }
    case Op::kHcat: {
      const VarId a = n.in[0], b = n.in[1];
      const std::size_t ac = n.index;
      if (t.requires_grad(a)) {
        Matrix& ga = t.grad_buf(a);
        t.parallel_range(g.rows(), ac * Tape::kPointwiseWork,
                         [&](std::size_t rb, std::size_t re) {
                           for (std::size_t r = rb; r < re; ++r)
                             for (std::size_t c = 0; c < ac; ++c)
                               ga(r, c) += g(r, c);
                         });
      }
      if (t.requires_grad(b)) {
        Matrix& gb = t.grad_buf(b);
        const std::size_t bc = g.cols() - ac;
        t.parallel_range(g.rows(), bc * Tape::kPointwiseWork,
                         [&](std::size_t rb, std::size_t re) {
                           for (std::size_t r = rb; r < re; ++r)
                             for (std::size_t c = 0; c < bc; ++c)
                               gb(r, c) += g(r, ac + c);
                         });
      }
      break;
    }
  }
}

}  // namespace detail

}  // namespace sgm::tensor
