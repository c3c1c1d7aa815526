#include "ml/matrix.hpp"

#include <algorithm>
#ifdef __FMA__
#include <immintrin.h>
#endif

#include "util/check.hpp"

namespace forumcast::ml {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), storage_(rows * cols, fill) {}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  storage_.resize(rows * cols);
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  FORUMCAST_CHECK(r < rows_ && c < cols_);
  return storage_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) {
  FORUMCAST_CHECK(r < rows_);
  return std::span<double>(storage_).subspan(r * cols_, cols_);
}

std::span<const double> Matrix::row(std::size_t r) const {
  FORUMCAST_CHECK(r < rows_);
  return std::span<const double>(storage_).subspan(r * cols_, cols_);
}

#if defined(__GNUC__) || defined(__clang__)
#define FORUMCAST_GEMM_SIMD 1
namespace {
using v4df = double __attribute__((vector_size(32)));

// Four lanes of ml::fmadd, acc += a·b — same pinned-contraction contract:
// one rounding per step on FMA hardware, mul-then-add otherwise, each lane
// independent. The vectors go by reference: a 32-byte vector passed by value
// has an ISA-dependent ABI, which GCC warns about (-Wpsabi).
inline void vfmadd(double a, const v4df& b, v4df& acc) {
#ifdef __FMA__
  const v4df av = {a, a, a, a};
  acc = static_cast<v4df>(
      _mm256_fmadd_pd(static_cast<__m256d>(av), static_cast<__m256d>(b),
                      static_cast<__m256d>(acc)));
#else
  acc = acc + a * b;
#endif
}
}  // namespace
#endif

void gemm_nt(std::size_t n, std::size_t m, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb,
             const double* bias, double* c, std::size_t ldc) {
#ifdef FORUMCAST_GEMM_SIMD
  // B's rows are strided, which blocks SIMD; repack each group of four rows
  // into a k-major panel ([kk][lane] contiguous) once per call, then sweep
  // the panels with 4-lane vector arithmetic. Lane l of a panel accumulates
  // bias[j+l] + Σ_kk a[i][kk]·b[j+l][kk] with kk ascending — the exact
  // floating-point sequence of the scalar loop below (broadcast-multiply-add
  // per lane), so gemm results stay bit-identical to Mlp::forward.
  // O(m·k) pack cost amortizes over the n row sweeps.
  thread_local std::vector<double> packed;
  const std::size_t panels = n > 1 ? m / 4 : 0;
  packed.resize(panels * k * 4);
  for (std::size_t p = 0; p < panels; ++p) {
    const double* b0 = b + (p * 4) * ldb;
    const double* b1 = b0 + ldb;
    const double* b2 = b1 + ldb;
    const double* b3 = b2 + ldb;
    double* dst = packed.data() + p * k * 4;
    for (std::size_t kk = 0; kk < k; ++kk) {
      dst[kk * 4 + 0] = b0[kk];
      dst[kk * 4 + 1] = b1[kk];
      dst[kk * 4 + 2] = b2[kk];
      dst[kk * 4 + 3] = b3[kk];
    }
  }
  // 4×4 micro-kernel: four A rows sweep a panel together, giving four
  // independent accumulator chains (the per-column k-order chain is serial by
  // the bit-exactness contract, so ILP has to come from rows) and reusing
  // each packed panel load four times.
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* a0 = a + i * lda;
    const double* a1 = a0 + lda;
    const double* a2 = a1 + lda;
    const double* a3 = a2 + lda;
    for (std::size_t p = 0; p < panels; ++p) {
      const std::size_t j = p * 4;
      const double* pb = packed.data() + p * k * 4;
      const v4df seed = bias
                            ? v4df{bias[j], bias[j + 1], bias[j + 2], bias[j + 3]}
                            : v4df{0.0, 0.0, 0.0, 0.0};
      v4df acc0 = seed, acc1 = seed, acc2 = seed, acc3 = seed;
      for (std::size_t kk = 0; kk < k; ++kk) {
        v4df bv;
        __builtin_memcpy(&bv, pb + kk * 4, sizeof(bv));
        vfmadd(a0[kk], bv, acc0);
        vfmadd(a1[kk], bv, acc1);
        vfmadd(a2[kk], bv, acc2);
        vfmadd(a3[kk], bv, acc3);
      }
      __builtin_memcpy(c + (i + 0) * ldc + j, &acc0, sizeof(acc0));
      __builtin_memcpy(c + (i + 1) * ldc + j, &acc1, sizeof(acc1));
      __builtin_memcpy(c + (i + 2) * ldc + j, &acc2, sizeof(acc2));
      __builtin_memcpy(c + (i + 3) * ldc + j, &acc3, sizeof(acc3));
    }
    for (std::size_t j = panels * 4; j < m; ++j) {
      const double* bj = b + j * ldb;
      double s0 = bias ? bias[j] : 0.0;
      double s1 = s0, s2 = s0, s3 = s0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double bv = bj[kk];
        s0 = fmadd(a0[kk], bv, s0);
        s1 = fmadd(a1[kk], bv, s1);
        s2 = fmadd(a2[kk], bv, s2);
        s3 = fmadd(a3[kk], bv, s3);
      }
      c[(i + 0) * ldc + j] = s0;
      c[(i + 1) * ldc + j] = s1;
      c[(i + 2) * ldc + j] = s2;
      c[(i + 3) * ldc + j] = s3;
    }
  }
  for (; i < n; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    for (std::size_t p = 0; p < panels; ++p) {
      const std::size_t j = p * 4;
      const double* pb = packed.data() + p * k * 4;
      v4df acc = bias ? v4df{bias[j], bias[j + 1], bias[j + 2], bias[j + 3]}
                      : v4df{0.0, 0.0, 0.0, 0.0};
      for (std::size_t kk = 0; kk < k; ++kk) {
        v4df bv;
        __builtin_memcpy(&bv, pb + kk * 4, sizeof(bv));
        vfmadd(ai[kk], bv, acc);
      }
      __builtin_memcpy(ci + j, &acc, sizeof(acc));
    }
    for (std::size_t j = panels * 4; j < m; ++j) {
      const double* bj = b + j * ldb;
      double accum = bias ? bias[j] : 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        accum = fmadd(ai[kk], bj[kk], accum);
      }
      ci[j] = accum;
    }
  }
#else
  for (std::size_t i = 0; i < n; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const double* b0 = b + j * ldb;
      const double* b1 = b0 + ldb;
      const double* b2 = b1 + ldb;
      const double* b3 = b2 + ldb;
      double s0 = bias ? bias[j] : 0.0;
      double s1 = bias ? bias[j + 1] : 0.0;
      double s2 = bias ? bias[j + 2] : 0.0;
      double s3 = bias ? bias[j + 3] : 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double av = ai[kk];
        s0 = fmadd(av, b0[kk], s0);
        s1 = fmadd(av, b1[kk], s1);
        s2 = fmadd(av, b2[kk], s2);
        s3 = fmadd(av, b3[kk], s3);
      }
      ci[j] = s0;
      ci[j + 1] = s1;
      ci[j + 2] = s2;
      ci[j + 3] = s3;
    }
    for (; j < m; ++j) {
      const double* bj = b + j * ldb;
      double accum = bias ? bias[j] : 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        accum = fmadd(ai[kk], bj[kk], accum);
      }
      ci[j] = accum;
    }
  }
#endif
}

void gemm_nn(std::size_t n, std::size_t m, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    std::fill(ci, ci + m, 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double av = ai[kk];
      if (av == 0.0) continue;
      const double* bk = b + kk * ldb;
      std::size_t j = 0;
#ifdef FORUMCAST_GEMM_SIMD
      for (; j + 4 <= m; j += 4) {
        v4df cv, bv;
        __builtin_memcpy(&cv, ci + j, sizeof(cv));
        __builtin_memcpy(&bv, bk + j, sizeof(bv));
        vfmadd(av, bv, cv);
        __builtin_memcpy(ci + j, &cv, sizeof(cv));
      }
#endif
      for (; j < m; ++j) {
        ci[j] = fmadd(av, bk[j], ci[j]);
      }
    }
  }
}

void gemm_tn_accumulate(std::size_t k, std::size_t n, std::size_t m,
                        const double* a, std::size_t lda, const double* b,
                        std::size_t ldb, double* c, std::size_t ldc) {
  for (std::size_t r = 0; r < k; ++r) {
    const double* ar = a + r * lda;
    const double* br = b + r * ldb;
    for (std::size_t u = 0; u < n; ++u) {
      const double av = ar[u];
      if (av == 0.0) continue;
      double* cu = c + u * ldc;
      std::size_t j = 0;
#ifdef FORUMCAST_GEMM_SIMD
      for (; j + 4 <= m; j += 4) {
        v4df cv, bv;
        __builtin_memcpy(&cv, cu + j, sizeof(cv));
        __builtin_memcpy(&bv, br + j, sizeof(bv));
        vfmadd(av, bv, cv);
        __builtin_memcpy(cu + j, &cv, sizeof(cv));
      }
#endif
      for (; j < m; ++j) {
        cu[j] = fmadd(av, br[j], cu[j]);
      }
    }
  }
}

void accumulate_weighted_rows(std::span<const double* const> rows,
                              std::span<const double> errs,
                              std::span<double> grads) {
  FORUMCAST_CHECK(rows.size() == errs.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const double e = errs[k];
    const double* x = rows[k];
    for (std::size_t c = 0; c < grads.size(); ++c) grads[c] += e * x[c];
  }
}

double dot(std::span<const double> a, std::span<const double> b) {
  FORUMCAST_CHECK(a.size() == b.size());
  double accum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) accum += a[i] * b[i];
  return accum;
}

}  // namespace forumcast::ml
