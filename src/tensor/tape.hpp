#pragma once
// Reverse-mode automatic differentiation over Matrix values — v2.
//
// The tape is define-by-run: the MLP forward pass — including the
// propagation of input-Jacobians and input-Hessian diagonals needed by PDE
// residuals — is recorded as a sequence of Matrix ops, and one backward()
// sweep produces gradients w.r.t. every parameter leaf. Nodes are
// topologically ordered by construction, so the backward sweep is a simple
// reverse iteration.
//
// v2 execution model (PR 4):
//  * ops are an enum dispatched in a switch, not std::function closures —
//    a node carries at most three input ids, a few scalar params and an
//    ElementwiseFunction pointer, never a heap-allocated callable;
//  * nodes live in a bump arena: clear() resets the node count but keeps
//    every node's value/grad/aux Matrix buffers, so a tape reused across
//    training steps re-records the same graph into the same buffers with
//    ZERO heap allocations in steady state (asserted by tests; input
//    encodings other than identity still stage their encode() outputs
//    outside the arena);
//  * kernels fan out over util::ThreadPool by work, not by rows: a loop is
//    cut into chunks of at least kWorkFloor FMA-equivalents and runs inline
//    when fewer than two result, so num_threads is an upper bound. A
//    width-48 step at 128 rows never touches the pool; 1,024-row steps
//    do. Every threaded kernel writes disjoint output elements and keeps
//    each element's floating-point accumulation order fixed, and
//    reductions run serially, so results are byte-identical at any
//    num_threads (the trainer's determinism invariant).

#include <array>
#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"
#include "util/thread_pool.hpp"

namespace sgm::tensor {

class ElementwiseFunction;

using VarId = std::int32_t;
inline constexpr VarId kNoVar = -1;

/// The op set. Fused ops exist for the training-step hot path:
/// kAffine = matmul + bias row broadcast; kActivation evaluates f, f', f''
/// (and f''' for backward) in ONE sweep over z; kActChain / kActCurve are
/// the per-input-dimension derivative propagation rules of the MLP layer
/// (see nn/mlp.hpp), each a single fused elementwise pass.
enum class Op : std::uint8_t {
  kLeaf,          // constant or parameter
  kAdd,           // a + b
  kSub,           // a - b
  kMul,           // a ⊙ b
  kScale,         // scalar * a
  kAddScalar,     // a + scalar
  kMatmul,        // a · b
  kAffine,        // a · w + 1 ⊗ bias
  kAddRowvec,     // x + 1 ⊗ b
  kApply,         // f^(order)(a) elementwise
  kActivation,    // f(z); aux[k] = f^(k+1)(z) for k < orders
  kActChain,      // f'(z) ⊙ zk            (ref: the kActivation node)
  kActCurve,      // f''(z) ⊙ zk² + f'(z) ⊙ hzk  (ref: the kActivation node)
  kSquare,        // a ⊙ a
  kCol,           // column `index` of a
  kMeanAll,       // scalar mean
  kSumAll,        // scalar sum
  kWeightedMean,  // scalar sum(w ⊙ a) / n, w in aux[0]
  kHcat,          // [a | b], index = a.cols
};

/// One arena slot. Matrix members are pooled: emit() reuses them in place
/// (resize retains capacity), which is where the zero-allocation steady
/// state comes from. Treated as internal by everything except the op
/// kernels in ops.cpp.
struct TapeNode {
  Matrix value;
  Matrix grad;                 // valid only when grad_set (stale otherwise)
  std::array<Matrix, 3> aux;   // kActivation: f',f'',f'''; kWeightedMean: w
  const ElementwiseFunction* fn = nullptr;
  double scalar = 0.0;         // kScale/kAddScalar factor, reduction 1/n
  std::uint32_t index = 0;     // kCol j; kHcat split; kActivation orders
  int order = 0;               // kApply derivative order
  std::array<VarId, 3> in = {kNoVar, kNoVar, kNoVar};
  VarId ref = kNoVar;          // kActChain/kActCurve -> kActivation node
  Op op = Op::kLeaf;
  bool requires_grad = false;
  bool grad_set = false;
};

class Tape {
 public:
  /// Leaf that never receives a gradient (e.g. collocation coordinates).
  /// The value is copied into the slot's pooled buffer.
  VarId constant(const Matrix& value);

  /// Leaf that accumulates a gradient (network weights / biases).
  VarId parameter(const Matrix& value);

  /// Leaf constant with an uninitialized (rows x cols) value the caller
  /// fills in place via mutable_value() — lets encodings write directly
  /// into the arena without a staging matrix.
  VarId constant_uninit(std::size_t rows, std::size_t cols);

  /// Record an op node (kernel interface, used by the emitters in ops.cpp).
  /// requires_grad is inferred from the inputs; throws on out-of-range ids.
  VarId emit(Op op, VarId in0 = kNoVar, VarId in1 = kNoVar,
             VarId in2 = kNoVar, VarId ref = kNoVar);

  const Matrix& value(VarId id) const { return pool_[id].value; }
  Matrix& mutable_value(VarId id) { return pool_[id].value; }

  /// Gradient of the last backward() root w.r.t. node `id`. Empty matrix if
  /// the node never received a gradient.
  const Matrix& grad(VarId id) const;

  bool requires_grad(VarId id) const { return pool_[id].requires_grad; }

  /// Runs reverse-mode accumulation from `root`, which must be 1x1.
  /// Clears any previous gradients first.
  void backward(VarId root);

  std::size_t num_nodes() const { return size_; }

  /// Drop all nodes; node slots and their Matrix capacity are retained so
  /// per-step reuse is allocation-free once shapes have stabilized.
  void clear() { size_ = 0; }

  /// Most threads a kernel may use (resolved count; 1 = serial, the
  /// default). Loops below two work floors run inline whatever the
  /// setting. Results are byte-identical at any setting.
  void set_num_threads(std::size_t n) { threads_ = n > 0 ? n : 1; }
  std::size_t num_threads() const { return threads_; }

  /// Kernel access to a node slot (ops.cpp only).
  TapeNode& node(VarId id) { return pool_[id]; }
  const TapeNode& node(VarId id) const { return pool_[id]; }

  /// Gradient buffer of `id`, shaped like its value and zero-filled on the
  /// first touch of this backward sweep; kernels accumulate into it.
  Matrix& grad_buf(VarId id);

  /// Chunked loop over [0, n): fn(begin, end). `work` is what one index
  /// costs in FMA-equivalents: inner × cols for a GEMM output row,
  /// kPointwiseWork or kTranscendentalWork per element. The total is cut
  /// into as many equal chunks as it holds whole kWorkFloors, each rounded
  /// up to the GEMM kernel's 4-row tile. Under two chunks, or at one
  /// thread, the loop runs inline as fn(0, n); otherwise it fans out over
  /// the shared pool. The layout depends only on n and work, and callers
  /// write disjoint slots, so outputs never depend on the thread count.
  template <class Fn>
  void parallel_range(std::size_t n, std::size_t work, Fn&& fn) const {
    const std::size_t chunks = n * work / kWorkFloor;
    if (threads_ <= 1 || chunks < 2) {
      fn(std::size_t{0}, n);
      return;
    }
    const std::size_t grain = ((n + chunks - 1) / chunks + 3) / 4 * 4;
    util::parallel_for_chunks(
        0, n, grain, threads_,
        [&fn](std::size_t b, std::size_t e, std::size_t) { fn(b, e); });
  }

  /// Least work one chunk carries. A fan-out costs ~50 µs of process CPU
  /// (task hand-off and worker wake-ups); 2^20 FMAs take ~75 µs at the
  /// GEMM kernel's ~14 GFMA/s on one AVX2 core, so a chunk carries more
  /// than handing it out costs.
  static constexpr std::size_t kWorkFloor = std::size_t{1} << 20;
  /// Work per element of a pointwise loop (a few loads and a store). A
  /// loop long enough to split has left L2, where an element costs ~1 ns,
  /// ~12 FMA times, and the fused act_* loops read up to five arrays.
  static constexpr std::size_t kPointwiseWork = 16;
  /// Work per element of an ElementwiseFunction sweep (apply, and the
  /// f..f''' ladder of activation): ~20–27 ns, 250–350 FMA times.
  static constexpr std::size_t kTranscendentalWork = 256;

 private:
  VarId alloc_node();

  std::vector<TapeNode> pool_;
  std::size_t size_ = 0;
  std::size_t threads_ = 1;
};

}  // namespace sgm::tensor
