#include "ml/activations.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <utility>
#ifdef __FMA__
#include <immintrin.h>
#endif

namespace forumcast::ml {

namespace {

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
struct Lanes<4> {
  using F = double __attribute__((vector_size(32)));
  using U = std::uint64_t __attribute__((vector_size(32)));
};

/// out = c + a·b per lane, one rounding on FMA hardware (as ml::fmadd).
template <std::size_t N>
inline void lanes_fmadd(const typename Lanes<N>::F& a,
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
inline void expm1_poly(const typename Lanes<N>::F& r,
                       typename Lanes<N>::F& poly, std::index_sequence<I...>) {
  using F = typename Lanes<N>::F;
  poly = kInvFactorial[kTerms - 1] - F{};
  (lanes_fmadd<N>(poly, r, kInvFactorial[kTerms - 2 - I] - F{}, poly), ...);
}

/// out[0, N) = tanh(in[0, N)); `in` and `out` may alias.
template <std::size_t N>
inline void tanh_lanes(const double* in, double* out) {
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

}  // namespace

double tanh(double x) {
  double y;
  tanh_lanes<1>(&x, &y);
  return y;
}

double sigmoid(double x) {
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

double softplus(double x) {
  // log(1 + e^x) computed without overflow for large |x|.
  if (x > 30.0) return x;
  if (x < -30.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

void activate_in_place(Activation act, double* values, std::size_t n) {
  switch (act) {
    case Activation::Identity: return;
    case Activation::ReLU:
      for (std::size_t i = 0; i < n; ++i) {
        values[i] = values[i] > 0.0 ? values[i] : 0.0;
      }
      return;
    case Activation::Tanh: {
      std::size_t i = 0;
      for (; i + 4 <= n; i += 4) tanh_lanes<4>(values + i, values + i);
      for (; i < n; ++i) tanh_lanes<1>(values + i, values + i);
      return;
    }
    case Activation::Sigmoid:
      for (std::size_t i = 0; i < n; ++i) values[i] = sigmoid(values[i]);
      return;
    case Activation::Softplus:
      for (std::size_t i = 0; i < n; ++i) values[i] = softplus(values[i]);
      return;
  }
}

double activate_derivative(Activation act, double pre) {
  switch (act) {
    case Activation::Identity: return 1.0;
    case Activation::ReLU: return pre > 0.0 ? 1.0 : 0.0;
    case Activation::Tanh: {
      const double t = tanh(pre);
      return 1.0 - t * t;
    }
    case Activation::Sigmoid: {
      const double s = sigmoid(pre);
      return s * (1.0 - s);
    }
    case Activation::Softplus: return sigmoid(pre);
  }
  return 1.0;
}

double activate_derivative_cached(Activation act, double pre, double post) {
  switch (act) {
    case Activation::Identity: return 1.0;
    case Activation::ReLU: return pre > 0.0 ? 1.0 : 0.0;
    case Activation::Tanh: return 1.0 - post * post;
    case Activation::Sigmoid: return post * (1.0 - post);
    case Activation::Softplus: return sigmoid(pre);
  }
  return 1.0;
}

std::string activation_name(Activation act) {
  switch (act) {
    case Activation::Identity: return "identity";
    case Activation::ReLU: return "relu";
    case Activation::Tanh: return "tanh";
    case Activation::Sigmoid: return "sigmoid";
    case Activation::Softplus: return "softplus";
  }
  return "?";
}

}  // namespace forumcast::ml
