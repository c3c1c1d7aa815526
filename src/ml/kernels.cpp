#include "ml/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>
#ifdef __FMA__
#include <immintrin.h>
#endif

#include "ml/activations.hpp"
#include "ml/matrix.hpp"

// x86-64 builds that do not already target FMA hardware (the portable
// default) compile an AVX2 copy of every kernel body beside the baseline.
// Native builds keep their one compile-time set: there the baseline already
// runs at full width with FMA, and an AVX2 copy would be the same code.
#if (defined(__x86_64__) || defined(__i386__)) && !defined(__FMA__)
#define FORUMCAST_KERNELS_AVX2 1
#endif

namespace forumcast::ml {

namespace {

// Kernel bodies and the helpers they call are forced inline, so each entry
// point in Entry<> below compiles its own copy under its own target ISA.
#define FORUMCAST_KERNEL_INLINE inline __attribute__((always_inline))

// ---------- fp64 GEMMs ----------

using v4df = double __attribute__((vector_size(32)));

// Four lanes of ml::fmadd, acc += a·b — same pinned-contraction contract:
// one rounding per step on FMA hardware, mul-then-add otherwise, each lane
// independent. The vectors go by reference: a 32-byte vector passed by value
// has an ISA-dependent ABI, which GCC warns about (-Wpsabi).
FORUMCAST_KERNEL_INLINE void vfmadd(double a, const v4df& b, v4df& acc) {
#ifdef __FMA__
  const v4df av = {a, a, a, a};
  acc = static_cast<v4df>(
      _mm256_fmadd_pd(static_cast<__m256d>(av), static_cast<__m256d>(b),
                      static_cast<__m256d>(acc)));
#else
  acc = acc + a * b;
#endif
}

FORUMCAST_KERNEL_INLINE void gemm_nt_body(std::size_t n, std::size_t m,
                                          std::size_t k, const double* a,
                                          std::size_t lda, const double* b,
                                          std::size_t ldb, const double* bias,
                                          double* c, std::size_t ldc) {
  // B's rows are strided, which blocks SIMD; repack each group of four rows
  // into a k-major panel ([kk][lane] contiguous) once per call, then sweep
  // the panels with 4-lane vector arithmetic. Lane l of a panel accumulates
  // bias[j+l] + Σ_kk a[i][kk]·b[j+l][kk] with kk ascending — the exact
  // floating-point sequence of the scalar tail loops (broadcast-multiply-add
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
}

// out[0, m) += av · row[0, m): four columns per vector step, scalar tail,
// each column its own fmadd chain.
FORUMCAST_KERNEL_INLINE void axpy_row(double av, const double* row, double* out,
                                      std::size_t m) {
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    v4df cv, bv;
    __builtin_memcpy(&cv, out + j, sizeof(cv));
    __builtin_memcpy(&bv, row + j, sizeof(bv));
    vfmadd(av, bv, cv);
    __builtin_memcpy(out + j, &cv, sizeof(cv));
  }
  for (; j < m; ++j) out[j] = fmadd(av, row[j], out[j]);
}

FORUMCAST_KERNEL_INLINE void gemm_nn_body(std::size_t n, std::size_t m,
                                          std::size_t k, const double* a,
                                          std::size_t lda, const double* b,
                                          std::size_t ldb, double* c,
                                          std::size_t ldc) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    std::fill(ci, ci + m, 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double av = ai[kk];
      if (av == 0.0) continue;
      axpy_row(av, b + kk * ldb, ci, m);
    }
  }
}

FORUMCAST_KERNEL_INLINE void gemm_tn_accumulate_body(
    std::size_t k, std::size_t n, std::size_t m, const double* a,
    std::size_t lda, const double* b, std::size_t ldb, double* c,
    std::size_t ldc) {
  for (std::size_t r = 0; r < k; ++r) {
    const double* ar = a + r * lda;
    const double* br = b + r * ldb;
    for (std::size_t u = 0; u < n; ++u) {
      const double av = ar[u];
      if (av == 0.0) continue;
      axpy_row(av, br, c + u * ldc, m);
    }
  }
}

// ---------- tanh ----------

// One tanh kernel, written once over N lanes of GNU vectors: N = 1 is
// ml::tanh, N = 4 the batched form. Lanes never interact and every step is
// an IEEE operation or a multiply-add pinned exactly as ml::fmadd pins it,
// so each lane rounds like the scalar call whatever the compiler's
// -ffp-contract setting. Vectors only ever pass by reference: a vector
// passed by value has an ISA-dependent ABI (GCC's -Wpsabi).
// (Spelled out per width: GCC drops a vector_size that depends on a
// template parameter.)
template <std::size_t N>
struct Lanes;
template <>
struct Lanes<1> {
  using F = double __attribute__((vector_size(8)));
  using U = std::uint64_t __attribute__((vector_size(8)));
};
template <>
struct Lanes<2> {
  using F = double __attribute__((vector_size(16)));
  using U = std::uint64_t __attribute__((vector_size(16)));
};
template <>
struct Lanes<4> {
  using F = double __attribute__((vector_size(32)));
  using U = std::uint64_t __attribute__((vector_size(32)));
};
template <>
struct Lanes<8> {
  using F = double __attribute__((vector_size(64)));
  using U = std::uint64_t __attribute__((vector_size(64)));
};

/// out = c + a·b per lane, one rounding on FMA hardware (as ml::fmadd).
template <std::size_t N>
FORUMCAST_KERNEL_INLINE void lanes_fmadd(const typename Lanes<N>::F& a,
                                         const typename Lanes<N>::F& b,
                                         const typename Lanes<N>::F& c,
                                         typename Lanes<N>::F& out) {
#ifdef __FMA__
  if constexpr (N == 4) {
    out = reinterpret_cast<typename Lanes<N>::F>(_mm256_fmadd_pd(
        reinterpret_cast<__m256d>(a), reinterpret_cast<__m256d>(b),
        reinterpret_cast<__m256d>(c)));
  } else {
    for (std::size_t i = 0; i < N; ++i) out[i] = __builtin_fma(a[i], b[i], c[i]);
  }
#else
  out = c + a * b;
#endif
}

constexpr std::uint64_t kSignBit = 0x8000000000000000u;
// tanh(x) rounds to ±1 from |x| ≈ 19.06 on, so clamping |x| at 20 changes
// no result and keeps 2^k inside the normal range.
constexpr std::uint64_t kClampBits = std::bit_cast<std::uint64_t>(20.0);
constexpr std::uint64_t kInfBits = 0x7ff0000000000000u;
constexpr double kInvLn2 = 0x1.71547652b82fep0;
// Adding 1.5·2^52 rounds to an integer and leaves it in the low mantissa
// bits, which then build 2^k with integer operations (no float → int
// conversion, so NaN lanes stay defined).
constexpr double kShifter = 0x1.8p52;
// Cody–Waite split of ln 2: kLn2Hi has 32 significant bits, so k·kLn2Hi is
// exact for the k ≤ 58 that |x| ≤ 20 produces.
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
// Taylor coefficients 1/n! of expm1, n = 2..13: on |r| ≤ ln2/2 the first
// omitted term is below 2^-55 relative.
constexpr double kInvFactorial[] = {
    1.0 / 2,        1.0 / 6,         1.0 / 24,         1.0 / 120,
    1.0 / 720,      1.0 / 5040,      1.0 / 40320,      1.0 / 362880,
    1.0 / 3628800,  1.0 / 39916800,  1.0 / 479001600,  1.0 / 6227020800};
constexpr std::size_t kTerms = std::size(kInvFactorial);

/// poly = Σ_n kInvFactorial[n]·r^n, Horner from the highest term, unrolled.
template <std::size_t N, std::size_t... I>
FORUMCAST_KERNEL_INLINE void expm1_poly(const typename Lanes<N>::F& r,
                                        typename Lanes<N>::F& poly,
                                        std::index_sequence<I...>) {
  using F = typename Lanes<N>::F;
  poly = kInvFactorial[kTerms - 1] - F{};
  (lanes_fmadd<N>(poly, r, kInvFactorial[kTerms - 2 - I] - F{}, poly), ...);
}

/// out[0, N) = tanh(in[0, N)); `in` and `out` may alias.
template <std::size_t N>
FORUMCAST_KERNEL_INLINE void tanh_lanes(const double* in, double* out) {
  using F = typename Lanes<N>::F;
  using U = typename Lanes<N>::U;
  // `c - F{}` broadcasts the constant c (c − (+0) = c for every c, so the
  // compiler folds it away).
  F x;
  std::memcpy(&x, in, sizeof x);
  const U sign = reinterpret_cast<U>(x) & kSignBit;
  // |x| clamped at 20 in the integer domain, where non-negative doubles
  // order like their bit patterns (+inf, then NaN, above every finite):
  // `over` is 1 above 20, `nan` is 1 for NaN, so nan − over is all ones
  // exactly on (20, +inf] and NaN keeps its bits.
  const U abs_bits = reinterpret_cast<U>(x) & ~kSignBit;
  const U over = (kClampBits - abs_bits) >> 63;
  const U nan = (kInfBits - abs_bits) >> 63;
  const U clamp = nan - over;
  const F a =
      reinterpret_cast<F>((clamp & kClampBits) | (~clamp & abs_bits));

  // expm1(z), z = 2|x| = k·ln2 + r: expm1(z) = 2^k·expm1(r) + (2^k − 1).
  const F z = a + a;
  const F shifter = kShifter - F{};
  F t;
  lanes_fmadd<N>(z, kInvLn2 - F{}, shifter, t);
  const F minus_k = shifter - t;
  F r;
  lanes_fmadd<N>(minus_k, kLn2Hi - F{}, z, r);
  lanes_fmadd<N>(minus_k, kLn2Lo - F{}, r, r);
  F poly;
  expm1_poly<N>(r, poly, std::make_index_sequence<kTerms - 1>{});
  F expm1_r;
  lanes_fmadd<N>(r * r, poly, r, expm1_r);
  const F scale =
      reinterpret_cast<F>((reinterpret_cast<U>(t) + std::uint64_t{1023}) << 52);
  F em;
  lanes_fmadd<N>(scale, expm1_r, scale - 1.0, em);

  const F result =
      reinterpret_cast<F>(reinterpret_cast<U>(em / (em + 2.0)) | sign);
  std::memcpy(out, &result, sizeof result);
}

FORUMCAST_KERNEL_INLINE void tanh_in_place_body(double* values, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) tanh_lanes<4>(values + i, values + i);
  for (; i < n; ++i) tanh_lanes<1>(values + i, values + i);
}

// ---------- ReLU ----------

// The widest vector the baseline target holds in one register. A wider GNU
// vector than the target has is lowered lane by lane through memory, which
// for a compare-and-select costs more than the scalar loop it replaces.
#if defined(__AVX512F__)
constexpr std::size_t kBaselineLanes = 8;
#elif defined(__AVX__)
constexpr std::size_t kBaselineLanes = 4;
#else
constexpr std::size_t kBaselineLanes = 2;
#endif

/// values[0, N) = relu(values[0, N)). The lane compare `v > 0` is all ones
/// exactly where the ternary keeps v and all zeros where it gives +0.0
/// (NaN, ±0, negatives), so masking v's bits with it reproduces
/// `v > 0.0 ? v : 0.0` bit for bit with no branch.
template <std::size_t N>
FORUMCAST_KERNEL_INLINE void relu_lanes(double* values) {
  using F = typename Lanes<N>::F;
  using U = typename Lanes<N>::U;
  F v;
  std::memcpy(&v, values, sizeof v);
  const U keep = reinterpret_cast<U>(v > F{});
  const F result = reinterpret_cast<F>(reinterpret_cast<U>(v) & keep);
  std::memcpy(values, &result, sizeof result);
}

template <std::size_t N>
FORUMCAST_KERNEL_INLINE void relu_in_place_body(double* values, std::size_t n) {
  std::size_t i = 0;
  for (; i + N <= n; i += N) relu_lanes<N>(values + i);
  if (i == n) return;
  // The tail runs the same lanes over a zero-padded copy.
  double tail[N] = {};
  std::memcpy(tail, values + i, (n - i) * sizeof(double));
  relu_lanes<N>(tail);
  std::memcpy(values + i, tail, (n - i) * sizeof(double));
}

// ---------- kernel sets ----------

// Entry<Body>::<isa> is Body inlined into a function compiled for that ISA:
// one body, one instantiation per set.
template <auto Body>
struct Entry;
template <typename... Args, void (*Body)(Args...)>
struct Entry<Body> {
  static void baseline(Args... args) { Body(args...); }
#ifdef FORUMCAST_KERNELS_AVX2
  __attribute__((target("avx2"))) static void avx2(Args... args) {
    Body(args...);
  }
#endif
};

constexpr KernelSet kCompiledSets[] = {
    {"baseline", &Entry<gemm_nt_body>::baseline, &Entry<gemm_nn_body>::baseline,
     &Entry<gemm_tn_accumulate_body>::baseline,
     &Entry<tanh_in_place_body>::baseline,
     &Entry<relu_in_place_body<kBaselineLanes>>::baseline},
#ifdef FORUMCAST_KERNELS_AVX2
    {"avx2", &Entry<gemm_nt_body>::avx2, &Entry<gemm_nn_body>::avx2,
     &Entry<gemm_tn_accumulate_body>::avx2, &Entry<tanh_in_place_body>::avx2,
     &Entry<relu_in_place_body<4>>::avx2},
#endif
};

}  // namespace

std::span<const KernelSet> kernel_sets() {
  // The compiled sets are ordered by width; the host runs a prefix of them.
  static const std::size_t supported = [] {
#ifdef FORUMCAST_KERNELS_AVX2
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("avx2")) return std::size_t{1};
#endif
    return std::size(kCompiledSets);
  }();
  return {kCompiledSets, supported};
}

const KernelSet& kernels() { return kernel_sets().back(); }

void gemm_nt(std::size_t n, std::size_t m, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb,
             const double* bias, double* c, std::size_t ldc) {
  kernels().gemm_nt(n, m, k, a, lda, b, ldb, bias, c, ldc);
}

void gemm_nn(std::size_t n, std::size_t m, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) {
  kernels().gemm_nn(n, m, k, a, lda, b, ldb, c, ldc);
}

void gemm_tn_accumulate(std::size_t k, std::size_t n, std::size_t m,
                        const double* a, std::size_t lda, const double* b,
                        std::size_t ldb, double* c, std::size_t ldc) {
  kernels().gemm_tn_accumulate(k, n, m, a, lda, b, ldb, c, ldc);
}

double tanh(double x) {
  double y;
  tanh_lanes<1>(&x, &y);
  return y;
}

}  // namespace forumcast::ml
