#include "tensor/matrix.hpp"

#include "tensor/gemm_dispatch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

// Baseline-ISA build of the micro-kernels; the fused vector builds live in
// gemm_avx2.cpp and gemm_avx512.cpp, and runtime dispatch picks one.
#define SGM_GEMM_NS gemm_generic
#include "tensor/gemm_kernels.inl"
#undef SGM_GEMM_NS

namespace sgm::tensor {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_)
      throw std::invalid_argument("Matrix: ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

void Matrix::fill(double v) {
  for (auto& x : data_) x = v;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::fabs(x));
  return m;
}

double Matrix::sum() const {
  double s = 0.0;
  for (double x : data_) s += x;
  return s;
}

void Matrix::axpy(double alpha, const Matrix& other) {
  if (!same_shape(other)) throw std::invalid_argument("axpy: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] += alpha * other.data_[i];
}

void Matrix::scale(double alpha) {
  for (auto& x : data_) x *= alpha;
}

namespace {
void check_mul(const Matrix& a, const Matrix& b, std::size_t ak,
               std::size_t bk) {
  if (ak != bk)
    throw std::invalid_argument("matmul: inner dimension mismatch (" +
                                std::to_string(a.rows()) + "x" +
                                std::to_string(a.cols()) + " vs " +
                                std::to_string(b.rows()) + "x" +
                                std::to_string(b.cols()) + ")");
}

std::vector<GemmBuild> make_gemm_builds() {
  std::vector<GemmBuild> builds;
#ifdef SGM_GEMM_X86
  // The CPU checks run here, in a baseline-ISA TU: nothing compiled with
  // -mavx* executes before its build is known to be supported.
  __builtin_cpu_init();
  const bool fma = __builtin_cpu_supports("fma");
  builds.push_back({"avx512", true,
                    fma && __builtin_cpu_supports("avx512f"),
                    gemm_avx512::gemm_nn_range, gemm_avx512::gemm_tn_range,
                    gemm_generic::gemm_nt_range});
  builds.push_back({"avx2", true, fma && __builtin_cpu_supports("avx2"),
                    gemm_avx2::gemm_nn_range, gemm_avx2::gemm_tn_range,
                    gemm_generic::gemm_nt_range});
#endif
  builds.push_back({"generic", false, true, gemm_generic::gemm_nn_range,
                    gemm_generic::gemm_tn_range, gemm_generic::gemm_nt_range});
  return builds;
}

}  // namespace

std::span<const GemmBuild> gemm_builds() {
  static const std::vector<GemmBuild> builds = make_gemm_builds();
  return builds;
}

const GemmBuild& gemm_build() {
  static const GemmBuild* const selected = [] {
    const std::span<const GemmBuild> builds = gemm_builds();
    return &*std::find_if(builds.begin(), builds.end(),
                          [](const GemmBuild& b) { return b.available; });
  }();
  return *selected;
}

void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
             std::size_t r1, bool accumulate) {
  gemm_build().nn(a, b, c, r0, r1, accumulate);
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
             std::size_t r1, bool accumulate) {
  gemm_build().tn(a, b, c, r0, r1, accumulate);
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
             std::size_t r1, bool accumulate) {
  gemm_build().nt(a, b, c, r0, r1, accumulate);
}

void matmul_accumulate(const Matrix& a, const Matrix& b, Matrix& c) {
  check_mul(a, b, a.cols(), b.rows());
  if (c.rows() != a.rows() || c.cols() != b.cols())
    throw std::invalid_argument("matmul_accumulate: output shape mismatch");
  gemm_nn(a, b, c, 0, a.rows(), /*accumulate=*/true);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  check_mul(a, b, a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  gemm_nn(a, b, c, 0, a.rows(), /*accumulate=*/false);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  check_mul(a, b, a.rows(), b.rows());
  Matrix c(a.cols(), b.cols());
  gemm_tn(a, b, c, 0, a.cols(), /*accumulate=*/false);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  check_mul(a, b, a.cols(), b.cols());
  Matrix c(a.rows(), b.rows());
  gemm_nt(a, b, c, 0, a.rows(), /*accumulate=*/false);
  return c;
}

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  check_mul(a, b, a.cols(), b.rows());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
  return c;
}

Matrix matmul_tn_reference(const Matrix& a, const Matrix& b) {
  check_mul(a, b, a.rows(), b.rows());
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  Matrix c(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += a(p, i) * b(p, j);
      c(i, j) = s;
    }
  return c;
}

Matrix matmul_nt_reference(const Matrix& a, const Matrix& b) {
  check_mul(a, b, a.cols(), b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += a(i, p) * b(j, p);
      c(i, j) = s;
    }
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  return t;
}

void transpose_into(const Matrix& a, Matrix& out) {
  out.resize(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) out(j, i) = arow[j];
  }
}

Matrix operator+(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("operator+: shape");
  Matrix c = a;
  c.axpy(1.0, b);
  return c;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("operator-: shape");
  Matrix c = a;
  c.axpy(-1.0, b);
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("hadamard: shape");
  Matrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] * b.data()[i];
  return c;
}

Matrix operator*(double s, const Matrix& a) {
  Matrix c = a;
  c.scale(s);
  return c;
}

Matrix identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

}  // namespace sgm::tensor
