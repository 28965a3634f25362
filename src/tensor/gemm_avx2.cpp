// AVX2+FMA build of the fused GEMM micro-kernels: the shared tile body in
// gemm_tile.inl over 4-wide ymm vectors, a 4 x 8 tile. CMake compiles this
// file with -mavx2 -mfma -ffp-contract=off and defines SGM_GEMM_X86 on
// x86-64 gcc/clang; elsewhere it is empty and dispatch never lists it.

#ifdef SGM_GEMM_X86

#include <immintrin.h>

#include "tensor/gemm_dispatch.hpp"

namespace sgm::tensor::gemm_avx2 {

struct Vec {
  using Reg = __m256d;
  using Mask = __m256i;
  static constexpr std::size_t kWidth = 4;

  static Reg zero() { return _mm256_setzero_pd(); }
  static Reg broadcast(double x) { return _mm256_set1_pd(x); }
  static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm256_fmadd_pd(a, b, c); }
  static Reg load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Reg v) { _mm256_storeu_pd(p, v); }
  // Lane l is on when l < n (the sign bit of each 64-bit lane selects).
  static Mask mask(std::size_t n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static Reg load(const double* p, Mask m) { return _mm256_maskload_pd(p, m); }
  static void store(double* p, Mask m, Reg v) { _mm256_maskstore_pd(p, m, v); }
};

}  // namespace sgm::tensor::gemm_avx2

#define SGM_GEMM_NS gemm_avx2
#include "tensor/gemm_tile.inl"
#undef SGM_GEMM_NS

#endif  // SGM_GEMM_X86
