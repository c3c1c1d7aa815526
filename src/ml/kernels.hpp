// The fp64 kernel sets behind ml::gemm_nt, ml::gemm_nn,
// ml::gemm_tn_accumulate and activate_in_place's tanh and ReLU.
//
// Each kernel body is written once and compiled once per instruction set:
// the baseline the build targets, plus — in builds without FMA (the portable
// default) on x86-64 — an AVX2 copy of the same body. AVX2 `vmulpd`/`vaddpd`/
// `vdivpd` round each lane exactly as SSE2 does and the wide copy never
// contracts a multiply-add (its TU builds with -ffp-contract=off, and AVX2
// alone has no FMA), so every set gives the same bits for the same inputs:
// portable results do not depend on the host's ISA. The process picks once,
// the widest set the host supports; there is no knob.
#pragma once

#include <cstddef>
#include <span>

namespace forumcast::ml {

struct KernelSet {
  const char* name;  // "baseline" or "avx2"
  void (*gemm_nt)(std::size_t n, std::size_t m, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb,
                  const double* bias, double* c, std::size_t ldc);
  void (*gemm_nn)(std::size_t n, std::size_t m, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc);
  void (*gemm_tn_accumulate)(std::size_t k, std::size_t n, std::size_t m,
                             const double* a, std::size_t lda, const double* b,
                             std::size_t ldb, double* c, std::size_t ldc);
  /// values[0, n) = ml::tanh(values[0, n)), four lanes at a time.
  void (*tanh_in_place)(double* values, std::size_t n);
  /// values[i] = values[i] > 0.0 ? values[i] : +0.0 for i in [0, n), bit for
  /// bit (NaN, ±0 and negatives give +0), with no per-element branch.
  void (*relu_in_place)(double* values, std::size_t n);
};

/// The kernel sets this build compiled and this host can run, baseline
/// first, widest last. Every entry gives bit-identical results.
std::span<const KernelSet> kernel_sets();

/// The set the public kernels run: kernel_sets().back(), chosen on first
/// use and fixed for the life of the process.
const KernelSet& kernels();

}  // namespace forumcast::ml
