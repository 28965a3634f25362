#pragma once
// Internal header: per-ISA GEMM kernel builds and their runtime dispatch.
//
// Three builds of the row-range kernels:
//  * generic — gemm_kernels.inl with the project's baseline flags (in
//    matrix.cpp): each product and each add round separately;
//  * avx2    — gemm_tile.inl over ymm vectors, a 4 x 8 tile (gemm_avx2.cpp,
//    -mavx2 -mfma);
//  * avx512  — the same tile body over zmm vectors, a 4 x 16 tile
//    (gemm_avx512.cpp, -mavx512f -mfma).
// The two vector builds are fused: every NN/TN element is one FMA chain, so
// they give the same bits (gemm_tile.inl). Their NT entry is the generic
// kernel; the hot backward path transposes and calls NN instead. The vector
// builds exist on x86-64 gcc/clang only (SGM_GEMM_X86).
//
// matrix.cpp selects one build per process, the first the CPU supports in
// the order above from best, via __builtin_cpu_supports, so one portable
// binary uses the widest kernels the host has. The choice never depends on
// thread count, preserving the determinism contract.

#include <cstddef>
#include <span>

#include "tensor/matrix.hpp"

namespace sgm::tensor {

using GemmRangeFn = void (*)(const Matrix& a, const Matrix& b, Matrix& c,
                             std::size_t r0, std::size_t r1, bool accumulate);

namespace gemm_generic {
void gemm_nn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate);
void gemm_tn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate);
void gemm_nt_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate);
}  // namespace gemm_generic

#ifdef SGM_GEMM_X86
namespace gemm_avx2 {
void gemm_nn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate);
void gemm_tn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate);
}  // namespace gemm_avx2

namespace gemm_avx512 {
void gemm_nn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate);
void gemm_tn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate);
}  // namespace gemm_avx512
#endif

/// One ISA build of the row-range kernels.
struct GemmBuild {
  const char* name;  ///< "avx512", "avx2" or "generic"
  bool fused;        ///< NN/TN elements are std::fma chains (else mul, add)
  bool available;    ///< compiled into this binary and supported by the CPU
  GemmRangeFn nn, tn, nt;
};

/// Every build compiled into this binary, best first; the last, generic,
/// is always available.
std::span<const GemmBuild> gemm_builds();

/// The build dispatch selected for this process: the first available one.
const GemmBuild& gemm_build();

}  // namespace sgm::tensor
