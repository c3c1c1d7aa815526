// Dense row-major matrix of doubles.
//
// Deliberately small: the models in this library are feature-vector scale
// (tens of dimensions), so we need clarity and correctness, not BLAS.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/tensor.hpp"

namespace forumcast::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c);

  /// Mutable view of row r.
  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  std::span<double> data() { return storage_; }
  std::span<const double> data() const { return storage_; }

  /// Non-owning Tensor view over the matrix storage (dense, stride == cols).
  /// Bridges Matrix-holding call sites into the tensor/workspace kernels;
  /// valid until the matrix is resized or destroyed.
  Tensor<double> view() { return Tensor<double>(storage_.data(), rows_, cols_); }
  Tensor<const double> view() const {
    return Tensor<const double>(storage_.data(), rows_, cols_);
  }

  /// Reshapes to rows × cols, reusing the existing allocation when its
  /// capacity allows. Element values are unspecified afterwards — this is for
  /// scratch buffers whose every element is overwritten before being read
  /// (e.g. gemm_nt outputs, which are seeded with the bias).
  void resize(std::size_t rows, std::size_t cols);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> storage_;
};

/// One accumulation step acc + a·b with the floating-point contraction pinned
/// at the source: a single rounding (true FMA) when the build targets FMA
/// hardware (FORUMCAST_NATIVE on such a host), mul-then-add otherwise. The
/// scalar Mlp::forward loop and every GEMM below accumulate through this
/// helper (or its four-lane equivalent), so batch and scalar paths make the
/// same rounding decisions and stay bit-identical even when the compiler
/// would otherwise contract one path but not the other. In a portable build
/// nothing contracts, which is what lets the wider kernel sets of
/// ml/kernels.hpp give the baseline's bits.
inline double fmadd(double a, double b, double acc) {
#ifdef __FMA__
  return __builtin_fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

/// Blocked GEMM kernel: C(n×m) = A(n×k) · B(m×k)^T, C[i][j] += bias[j] first
/// when `bias` is non-null. Row strides are lda/ldb/ldc. B's rows play the
/// role of weight vectors, so for each output the k-loop accumulates in
/// ascending order — bit-identical to a scalar dot product. B is repacked
/// per call into four-column k-major panels that a 4-row × 4-column
/// micro-kernel sweeps: independent row chains hide FP latency without
/// reordering any per-element sum. This and the two GEMMs below run the
/// process's kernel set (ml/kernels.hpp): four-lane vectors are one AVX2
/// register where the host has it, two SSE2 halves otherwise, with the same
/// bits either way.
void gemm_nt(std::size_t n, std::size_t m, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb,
             const double* bias, double* c, std::size_t ldc);

/// Row-update GEMM: C(n×m) = A(n×k) · B(k×m), overwriting C. Each C row is
/// zeroed and then accumulated one B row at a time, so every output element's
/// k-loop runs in ascending order through ml::fmadd (vectorized four columns
/// wide with independent per-lane chains) — bit-identical to the pinned
/// scalar loop `for k: c[j] = fmadd(a[k], b[k][j], c[j])`. This is the
/// training-time gradient propagation product (dL/dinput = dL/dpre · W),
/// where B's rows — not its columns — are contiguous, which rules out the
/// gemm_nt layout. Zero elements of A skip their whole B-row update (common
/// under ReLU); with accumulators rooted at +0.0 the skip cannot change any
/// result bit, because adding a ±0.0 product to such a chain is an identity.
void gemm_nn(std::size_t n, std::size_t m, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc);

/// Accumulating transposed GEMM: C(n×m) += A(k×n)^T · B(k×m), i.e.
/// C[u][j] += Σ_r A[r][u]·B[r][j] with r ascending. This is the minibatch
/// weight-gradient product (WG += dL/dpre^T · activations): the k dimension
/// is the batch, and per-sample backprop (Mlp::backward) accumulates exactly
/// these rank-1 updates one sample at a time, so running the r-loop
/// outermost — streaming both operands row-major, no transposes or scratch —
/// reproduces its per-element fmadd chains bit-for-bit even when C starts
/// nonzero (gradients accumulate across minibatches). Rows of A whose element
/// is zero skip their update, mirroring Mlp::backward's `g == 0` skip
/// (bit-neutral: adding a ±0.0 product to a chain rooted at +0.0 or any
/// accumulated value is an identity for these inputs).
void gemm_tn_accumulate(std::size_t k, std::size_t n, std::size_t m,
                        const double* a, std::size_t lda, const double* b,
                        std::size_t ldb, double* c, std::size_t ldc);

/// Gradient accumulation for the linear models: grads[c] +=
/// Σ_k errs[k] · rows[k][c] for every column c, samples in order (k
/// ascending), each row holding at least grads.size() columns.
void accumulate_weighted_rows(std::span<const double* const> rows,
                              std::span<const double> errs,
                              std::span<double> grads);

/// Dot product; sizes must match.
double dot(std::span<const double> a, std::span<const double> b);

}  // namespace forumcast::ml
