// AVX-512 build of the fused GEMM micro-kernels: the shared tile body in
// gemm_tile.inl over 8-wide zmm vectors, a 4 x 16 tile. CMake compiles this
// file with -mavx512f -mfma -ffp-contract=off and defines SGM_GEMM_X86 on
// x86-64 gcc/clang; elsewhere it is empty and dispatch never lists it.

#ifdef SGM_GEMM_X86

#include <immintrin.h>

#include "tensor/gemm_dispatch.hpp"

namespace sgm::tensor::gemm_avx512 {

struct Vec {
  using Reg = __m512d;
  using Mask = __mmask8;
  static constexpr std::size_t kWidth = 8;

  static Reg zero() { return _mm512_setzero_pd(); }
  static Reg broadcast(double x) { return _mm512_set1_pd(x); }
  static Reg add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm512_fmadd_pd(a, b, c); }
  static Reg load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, Reg v) { _mm512_storeu_pd(p, v); }
  static Mask mask(std::size_t n) {
    return static_cast<Mask>((1u << n) - 1u);
  }
  static Reg load(const double* p, Mask m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void store(double* p, Mask m, Reg v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
};

}  // namespace sgm::tensor::gemm_avx512

#define SGM_GEMM_NS gemm_avx512
#include "tensor/gemm_tile.inl"
#undef SGM_GEMM_NS

#endif  // SGM_GEMM_X86
