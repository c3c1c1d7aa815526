#include "ml/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ml/workspace.hpp"
#include "util/check.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace forumcast::ml {

namespace {

std::size_t pad_to(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

/// Symmetric scale for a row: max|v| / 127, or 1 when the row is all zero
/// (any scale reproduces an all-zero quantized row; 1 keeps dequant finite).
double symmetric_scale(const double* v, std::size_t n) {
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) max_abs = std::max(max_abs, std::fabs(v[i]));
  return max_abs > 0.0 ? max_abs / 127.0 : 1.0;
}

// Round half away from zero without std::lround: the libm call dominated
// the whole int8 forward when issued once per element (gcc cannot inline it
// because of the errno/rounding-mode contract). |v|·inv_scale ≤ 127·(1+ε)
// by construction of the scale, so the int conversion cannot overflow; the
// clamp handles the ε. The same function quantizes weights at fit time and
// activations at inference, so every path (scalar, batch, save/load) rounds
// identically — which is all bit-parity needs.
std::int8_t quantize_value(double v, double inv_scale) {
  const double scaled = v * inv_scale;
  const int q = static_cast<int>(scaled + (scaled >= 0.0 ? 0.5 : -0.5));
  return static_cast<std::int8_t>(std::clamp(q, -127, 127));
}

// Biased variants store q + 128 as the uint8 bit pattern (q ^ 0x80) so
// activation rows feed dpbusd's unsigned operand with no per-kernel fixup.
// The quantized values themselves are identical to the signed path.
template <bool Biased>
std::int8_t encode_q(std::int8_t q) {
  if constexpr (Biased) {
    return static_cast<std::int8_t>(static_cast<std::uint8_t>(q) ^ 0x80u);
  } else {
    return q;
  }
}

template <bool Biased>
void quantize_row_ref(const double* row, std::size_t n, double inv_scale,
                      std::int8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = encode_q<Biased>(quantize_value(row[i], inv_scale));
  }
}

// The AVX-512 helpers below lean on intrinsics (max_pd, cvttpd, extracts,
// reduce_*) that gcc 12 implements with an undefined pass-through operand;
// src/ml/CMakeLists.txt disables the resulting -W(maybe-)uninitialized false
// positive for this one translation unit.
#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512BW__)
#define FORUMCAST_QUANT_AVX512 1

inline double reduce_max_pd(__m512d v) { return _mm512_reduce_max_pd(v); }

// Bitwise-identical to symmetric_scale: |v| is exact and max is exact in any
// order. max_pd(abs, best) returns `best` when `abs` is NaN, matching the
// scalar std::max's ignore-NaN behaviour.
double symmetric_scale_avx512(const double* v, std::size_t n) {
  const __m512d sign = _mm512_set1_pd(-0.0);
  __m512d best = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    best = _mm512_max_pd(_mm512_andnot_pd(sign, _mm512_loadu_pd(v + i)), best);
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    best = _mm512_max_pd(
        _mm512_andnot_pd(sign, _mm512_maskz_loadu_pd(tail, v + i)), best);
  }
  const double max_abs = reduce_max_pd(best);
  return max_abs > 0.0 ? max_abs / 127.0 : 1.0;
}

// Bitwise-identical to quantize_value per element: the same IEEE multiply,
// the same ±0.5 blend (the GE comparison treats NaN exactly like the scalar
// >=), the same truncating convert, the same ±127 clamp. The scalar loop was
// the single hottest piece of the int8 forward — 8 doubles per step here.
template <bool Biased>
void quantize_row_avx512(const double* row, std::size_t n, double inv_scale,
                         std::int8_t* out) {
  const __m512d inv = _mm512_set1_pd(inv_scale);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d neg_half = _mm512_set1_pd(-0.5);
  const __m256i hi = _mm256_set1_epi32(127);
  const __m256i lo = _mm256_set1_epi32(-127);
  const __m128i flip = _mm_set1_epi8(static_cast<char>(0x80));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d scaled = _mm512_mul_pd(_mm512_loadu_pd(row + i), inv);
    const __mmask8 nonneg =
        _mm512_cmp_pd_mask(scaled, _mm512_setzero_pd(), _CMP_GE_OQ);
    const __m512d adj = _mm512_mask_blend_pd(nonneg, neg_half, half);
    __m256i q = _mm512_cvttpd_epi32(_mm512_add_pd(scaled, adj));
    q = _mm256_max_epi32(_mm256_min_epi32(q, hi), lo);
    __m128i bytes = _mm256_cvtepi32_epi8(q);
    if constexpr (Biased) bytes = _mm_xor_si128(bytes, flip);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), bytes);
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512d scaled =
        _mm512_mul_pd(_mm512_maskz_loadu_pd(tail, row + i), inv);
    const __mmask8 nonneg =
        _mm512_cmp_pd_mask(scaled, _mm512_setzero_pd(), _CMP_GE_OQ);
    const __m512d adj = _mm512_mask_blend_pd(nonneg, neg_half, half);
    __m256i q = _mm512_cvttpd_epi32(_mm512_add_pd(scaled, adj));
    q = _mm256_max_epi32(_mm256_min_epi32(q, hi), lo);
    __m128i bytes = _mm256_cvtepi32_epi8(q);
    if constexpr (Biased) bytes = _mm_xor_si128(bytes, flip);
    _mm_mask_storeu_epi8(out + i, static_cast<__mmask16>(tail), bytes);
  }
}
#endif  // __AVX512F__ && __AVX512VL__ && __AVX512BW__

// Block quantization: per-sample symmetric scale plus int8 quantization of
// every row of a layer input. One indirect call per layer, not per row — the
// call overhead alone was measurable at serving batch sizes. Padding lanes
// are pre-zeroed by the caller. The vector variant produces the same bits as
// the scalar reference, so kernel choice never changes predictions.
using QuantizeBlockFn = void (*)(Tensor<const double> src, std::size_t fan_in,
                                 std::size_t padded_k, std::int8_t* qx,
                                 double* x_scales);

template <bool Biased>
void quantize_block_ref(Tensor<const double> src, std::size_t fan_in,
                        std::size_t padded_k, std::int8_t* qx,
                        double* x_scales) {
  for (std::size_t r = 0; r < src.rows(); ++r) {
    const double* row = src.row(r).data();
    const double scale = symmetric_scale(row, fan_in);
    x_scales[r] = scale;
    quantize_row_ref<Biased>(row, fan_in, 1.0 / scale, qx + r * padded_k);
  }
}

#if defined(FORUMCAST_QUANT_AVX512)
template <bool Biased>
void quantize_block_avx512(Tensor<const double> src, std::size_t fan_in,
                           std::size_t padded_k, std::int8_t* qx,
                           double* x_scales) {
  // Two passes: all the scale reductions first (independent rows overlap in
  // the out-of-order window far better than a scan→divide→quantize chain per
  // row), then the quantize sweeps.
  for (std::size_t r = 0; r < src.rows(); ++r) {
    x_scales[r] = symmetric_scale_avx512(src.row(r).data(), fan_in);
  }
  for (std::size_t r = 0; r < src.rows(); ++r) {
    quantize_row_avx512<Biased>(src.row(r).data(), fan_in, 1.0 / x_scales[r],
                                qx + r * padded_k);
  }
}
#endif

bool quant_avx512_supported() {
#if defined(FORUMCAST_QUANT_AVX512)
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512vl") &&
                         __builtin_cpu_supports("avx512bw");
  return ok;
#else
  return false;
#endif
}

template <bool Biased>
QuantizeBlockFn select_quantize_block() {
#if defined(FORUMCAST_QUANT_AVX512)
  if (quant_avx512_supported()) return &quantize_block_avx512<Biased>;
#endif
  return &quantize_block_ref<Biased>;
}

QuantizeBlockFn quantize_block() {
  static const QuantizeBlockFn fn = select_quantize_block<false>();
  return fn;
}

QuantizeBlockFn quantize_block_biased() {
  static const QuantizeBlockFn fn = select_quantize_block<true>();
  return fn;
}

// Dequantize + activate one layer's int32 accumulators into fp64 outputs.
using DequantBlockFn = void (*)(const std::int32_t* acc,
                                const QuantizedLayer& layer,
                                const double* x_scales, Tensor<double> out);

void dequant_block_ref(const std::int32_t* acc, const QuantizedLayer& layer,
                       const double* x_scales, Tensor<double> out) {
  for (std::size_t r = 0; r < out.rows(); ++r) {
    const std::int32_t* arow = acc + r * layer.units;
    double* orow = out.row(r).data();
    const double sx = x_scales[r];
    for (std::size_t u = 0; u < layer.units; ++u) {
      const double pre = static_cast<double>(arow[u]) * (sx * layer.scales[u]) +
                         layer.bias[u] + layer.bias_correction[u];
      orow[u] = activate(layer.activation, pre);
    }
  }
}

#if defined(FORUMCAST_QUANT_AVX512)
// Vector dequant for the activations the vote network uses. The per-element
// operation order matches dequant_block_ref exactly; max_pd(pre, 0) returns
// +0.0 for both -0.0 and NaN inputs, same as the scalar ReLU branch. Layers
// with transcendental activations take the scalar libm path.
void dequant_block_avx512(const std::int32_t* acc, const QuantizedLayer& layer,
                          const double* x_scales, Tensor<double> out) {
  const bool relu = layer.activation == Activation::ReLU;
  if (!relu && layer.activation != Activation::Identity) {
    dequant_block_ref(acc, layer, x_scales, out);
    return;
  }
  const std::size_t units = layer.units;
  const __m512d zero = _mm512_setzero_pd();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    const std::int32_t* arow = acc + r * units;
    double* orow = out.row(r).data();
    const double sx = x_scales[r];
    const __m512d sxv = _mm512_set1_pd(sx);
    std::size_t u = 0;
    for (; u + 8 <= units; u += 8) {
      const __m512d av = _mm512_cvtepi32_pd(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + u)));
      const __m512d combined =
          _mm512_mul_pd(sxv, _mm512_loadu_pd(layer.scales.data() + u));
      __m512d pre = _mm512_mul_pd(av, combined);
      pre = _mm512_add_pd(pre, _mm512_loadu_pd(layer.bias.data() + u));
      pre = _mm512_add_pd(pre,
                          _mm512_loadu_pd(layer.bias_correction.data() + u));
      if (relu) pre = _mm512_max_pd(pre, zero);
      _mm512_storeu_pd(orow + u, pre);
    }
    if (u < units) {
      const __mmask8 tail = static_cast<__mmask8>((1u << (units - u)) - 1u);
      const __m512d av =
          _mm512_cvtepi32_pd(_mm256_maskz_loadu_epi32(tail, arow + u));
      const __m512d combined = _mm512_mul_pd(
          sxv, _mm512_maskz_loadu_pd(tail, layer.scales.data() + u));
      __m512d pre = _mm512_mul_pd(av, combined);
      pre = _mm512_add_pd(pre,
                          _mm512_maskz_loadu_pd(tail, layer.bias.data() + u));
      pre = _mm512_add_pd(pre, _mm512_maskz_loadu_pd(
                                   tail, layer.bias_correction.data() + u));
      if (relu) pre = _mm512_max_pd(pre, zero);
      _mm512_mask_storeu_pd(orow + u, tail, pre);
    }
  }
}
#endif

DequantBlockFn select_dequant_block() {
#if defined(FORUMCAST_QUANT_AVX512)
  if (quant_avx512_supported()) return &dequant_block_avx512;
#endif
  return &dequant_block_ref;
}

DequantBlockFn dequant_block() {
  static const DequantBlockFn fn = select_dequant_block();
  return fn;
}

}  // namespace

void gemm_s8_scalar(std::size_t n, std::size_t m, std::size_t k,
                    const std::int8_t* a, std::size_t lda, const std::int8_t* b,
                    std::size_t ldb, std::int32_t* c, std::size_t ldc) {
  for (std::size_t r = 0; r < n; ++r) {
    const std::int8_t* arow = a + r * lda;
    for (std::size_t u = 0; u < m; ++u) {
      const std::int8_t* brow = b + u * ldb;
      std::int32_t acc = 0;
      for (std::size_t i = 0; i < k; ++i) {
        acc += static_cast<std::int32_t>(arow[i]) * static_cast<std::int32_t>(brow[i]);
      }
      c[r * ldc + u] = acc;
    }
  }
}

#if defined(__AVX2__)
// 32 int8 lanes per step: sign-extend each 16-lane half to int16 and use
// madd_epi16 (pairwise multiply-add into int32). Products of two values in
// [-127, 127] summed in pairs stay well inside int16-free int32 range —
// unlike maddubs_epi16 there is no saturation anywhere, so the result is the
// exact integer sum in every lane.
void gemm_s8_avx2(std::size_t n, std::size_t m, std::size_t k,
                  const std::int8_t* a, std::size_t lda, const std::int8_t* b,
                  std::size_t ldb, std::int32_t* c, std::size_t ldc) {
  for (std::size_t r = 0; r < n; ++r) {
    const std::int8_t* arow = a + r * lda;
    for (std::size_t u = 0; u < m; ++u) {
      const std::int8_t* brow = b + u * ldb;
      __m256i acc = _mm256_setzero_si256();
      for (std::size_t i = 0; i < k; i += 32) {
        const __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(arow + i));
        const __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(brow + i));
        const __m256i alo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(av));
        const __m256i ahi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(av, 1));
        const __m256i blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
        const __m256i bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(bv, 1));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(alo, blo));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(ahi, bhi));
      }
      const __m128i lo = _mm256_castsi256_si128(acc);
      const __m128i hi = _mm256_extracti128_si256(acc, 1);
      __m128i sum = _mm_add_epi32(lo, hi);
      sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
      sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(2, 3, 0, 1)));
      c[r * ldc + u] = _mm_cvtsi128_si32(sum);
    }
  }
}
#endif  // __AVX2__

#if defined(__AVX512VNNI__) && defined(__AVX512BW__) && defined(__AVX512F__)
inline __m512i broadcast_u32(const std::int8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return _mm512_set1_epi32(v);
}

// Packed-B kernel, the serving fast path: weight units live in the 16 int32
// lanes (QuantizedLayer::packed layout), activations broadcast four k-lanes
// at a time — no horizontal reduction at all. `a` holds +128-biased
// activation rows; subtracting 128·row_sums afterwards recovers the signed
// sums exactly, so results are bit-identical to every other kernel. Two
// accumulators break the dpbusd dependency chain. Only ceil(k_used/4)
// four-lane groups are touched: every group beyond holds all-zero weights
// (and the byte or three of padding inside the last group multiplies zero
// weights too), so skipping the rest of the kPad padding changes nothing —
// and on 20-unit hidden layers it is a 3× cut in dpbusd work.
void gemm_s8u_vnni_packed(std::size_t n, std::size_t m, std::size_t k_used,
                          std::size_t k, const std::int8_t* a, std::size_t lda,
                          const std::int8_t* packed, std::int32_t* c,
                          std::size_t ldc, const std::int32_t* row_sums) {
  const std::size_t blocks = (m + 15) / 16;
  const std::size_t k4_count = (k_used + 3) / 4;
  const __m512i offset = _mm512_set1_epi32(128);
  for (std::size_t r = 0; r < n; ++r) {
    const std::int8_t* arow = a + r * lda;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      const std::int8_t* bbase = packed + blk * 16 * k;
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      std::size_t k4 = 0;
      for (; k4 + 2 <= k4_count; k4 += 2) {
        acc0 = _mm512_dpbusd_epi32(acc0, broadcast_u32(arow + k4 * 4),
                                   _mm512_loadu_si512(bbase + k4 * 64));
        acc1 = _mm512_dpbusd_epi32(acc1, broadcast_u32(arow + k4 * 4 + 4),
                                   _mm512_loadu_si512(bbase + (k4 + 1) * 64));
      }
      if (k4 < k4_count) {
        acc0 = _mm512_dpbusd_epi32(acc0, broadcast_u32(arow + k4 * 4),
                                   _mm512_loadu_si512(bbase + k4 * 64));
      }
      __m512i sums = _mm512_add_epi32(acc0, acc1);
      sums = _mm512_sub_epi32(
          sums, _mm512_mullo_epi32(
                    offset, _mm512_loadu_si512(row_sums + blk * 16)));
      const std::size_t u0 = blk * 16;
      if (m - u0 >= 16) {
        _mm512_storeu_si512(c + r * ldc + u0, sums);
      } else {
        _mm512_mask_storeu_epi32(c + r * ldc + u0,
                                 static_cast<__mmask16>((1u << (m - u0)) - 1u),
                                 sums);
      }
    }
  }
}
#endif  // __AVX512VNNI__

namespace {

// kVnni selects the packed-B serving kernel, which needs QuantizedMlp's
// packed layout and row sums; the generic row-major GemmS8Fn entry maps it
// to AVX2. gemm_s8()/gemm_s8_variant() expose the choice for tests and
// benches.
enum class Kernel { kScalar, kAvx2, kVnni };

Kernel select_kernel() {
#if defined(__AVX512VNNI__) && defined(__AVX512BW__) && defined(__AVX512F__)
  if (__builtin_cpu_supports("avx512vnni") &&
      __builtin_cpu_supports("avx512bw")) {
    return Kernel::kVnni;
  }
#endif
#if defined(__AVX2__)
  if (__builtin_cpu_supports("avx2")) return Kernel::kAvx2;
#endif
  return Kernel::kScalar;
}

Kernel active_kernel() {
  static const Kernel kernel = select_kernel();
  return kernel;
}

void gemm_s8_auto(std::size_t n, std::size_t m, std::size_t k,
                  const std::int8_t* a, std::size_t lda, const std::int8_t* b,
                  std::size_t ldb, std::int32_t* c, std::size_t ldc) {
  // The VNNI kernel only exists in packed-B form; AVX2 is the widest
  // row-major kernel.
  switch (active_kernel()) {
#if defined(__AVX2__)
    case Kernel::kAvx2:
    case Kernel::kVnni:
      gemm_s8_avx2(n, m, k, a, lda, b, ldb, c, ldc);
      return;
#endif
    default:
      gemm_s8_scalar(n, m, k, a, lda, b, ldb, c, ldc);
      return;
  }
}

// The packed-B serving path needs VNNI (kernel) — any CPU with VNNI also has
// the VL/BW the biased quantizer uses, but the quantizer falls back to its
// scalar biased variant independently if not.
bool use_packed_vnni() {
#if defined(__AVX512VNNI__) && defined(__AVX512BW__) && defined(__AVX512F__)
  return active_kernel() == Kernel::kVnni;
#else
  return false;
#endif
}

}  // namespace

GemmS8Fn gemm_s8() { return &gemm_s8_auto; }

const char* gemm_s8_variant() {
  switch (active_kernel()) {
    case Kernel::kVnni:
      return "avx512vnni";
    case Kernel::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

namespace {

// Build the runtime VNNI interleave from the padded row-major weights:
// units padded to blocks of 16, each block holding k/4 groups of 16 units ×
// 4 consecutive k lanes (one dpbusd operand per group). Must run after
// weights and row_sums are final.
void pack_layer(QuantizedLayer& layer) {
  const std::size_t blocks = (layer.units + 15) / 16;
  const std::size_t k4_count = layer.padded_k / 4;
  layer.packed.assign(blocks * 16 * layer.padded_k, 0);
  layer.packed_row_sums.assign(blocks * 16, 0);
  std::copy(layer.row_sums.begin(), layer.row_sums.end(),
            layer.packed_row_sums.begin());
  for (std::size_t u = 0; u < layer.units; ++u) {
    const std::int8_t* src = layer.weights.data() + u * layer.padded_k;
    std::int8_t* base = layer.packed.data() + (u / 16) * 16 * layer.padded_k;
    const std::size_t lane = u % 16;
    for (std::size_t k4 = 0; k4 < k4_count; ++k4) {
      std::memcpy(base + k4 * 64 + lane * 4, src + k4 * 4, 4);
    }
  }
}

QuantizedLayer quantize_layer(const Mlp& net, std::size_t l,
                              const double* input_mean) {
  const Tensor<const double> w = net.weights(l);
  const std::span<const double> b = net.bias(l);
  QuantizedLayer layer;
  layer.units = w.rows();
  layer.fan_in = w.cols();
  layer.padded_k = pad_to(layer.fan_in, QuantizedMlp::kPad);
  layer.activation = net.layers()[l].activation;
  layer.weights.assign(layer.units * layer.padded_k, 0);
  layer.row_sums.assign(layer.units, 0);
  layer.scales.resize(layer.units);
  layer.bias.assign(b.begin(), b.end());
  layer.bias_correction.assign(layer.units, 0.0);
  for (std::size_t u = 0; u < layer.units; ++u) {
    const double* wrow = w.row(u).data();
    const double scale = symmetric_scale(wrow, layer.fan_in);
    const double inv_scale = 1.0 / scale;
    layer.scales[u] = scale;
    std::int8_t* qrow = layer.weights.data() + u * layer.padded_k;
    std::int32_t row_sum = 0;
    double corr = 0.0;
    for (std::size_t i = 0; i < layer.fan_in; ++i) {
      const std::int8_t q = quantize_value(wrow[i], inv_scale);
      qrow[i] = q;
      row_sum += q;
      if (input_mean != nullptr) {
        corr += (wrow[i] - scale * static_cast<double>(q)) * input_mean[i];
      }
    }
    layer.row_sums[u] = row_sum;
    layer.bias_correction[u] = corr;
  }
  pack_layer(layer);
  return layer;
}

}  // namespace

QuantizedMlp QuantizedMlp::from(const Mlp& net) {
  QuantizedMlp q;
  q.input_dim_ = net.input_dim();
  q.layers_.reserve(net.layer_count());
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    q.layers_.push_back(quantize_layer(net, l, nullptr));
  }
  return q;
}

QuantizedMlp QuantizedMlp::from(const Mlp& net, const Matrix& calibration) {
  FORUMCAST_CHECK(calibration.rows() > 0);
  FORUMCAST_CHECK(calibration.cols() == net.input_dim());
  // Per-layer mean inputs: layer 0 sees the calibration rows themselves,
  // layer l > 0 the fp64 activations of layer l−1.
  Mlp::BatchTape tape;
  net.forward_batch(calibration, tape);
  const double inv_n = 1.0 / static_cast<double>(calibration.rows());

  QuantizedMlp q;
  q.input_dim_ = net.input_dim();
  q.layers_.reserve(net.layer_count());
  std::vector<double> mean;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const Tensor<const double> input =
        l == 0 ? calibration.view() : tape.post(l - 1);
    mean.assign(input.cols(), 0.0);
    for (std::size_t r = 0; r < input.rows(); ++r) {
      const double* row = input.row(r).data();
      for (std::size_t c = 0; c < input.cols(); ++c) mean[c] += row[c];
    }
    for (double& m : mean) m *= inv_n;
    q.layers_.push_back(quantize_layer(net, l, mean.data()));
  }
  return q;
}

QuantizedMlp QuantizedMlp::from_layers(std::size_t input_dim,
                                       std::vector<QuantizedLayer> layers) {
  FORUMCAST_CHECK(input_dim > 0);
  FORUMCAST_CHECK(!layers.empty());
  std::size_t expect_in = input_dim;
  for (auto& layer : layers) {
    FORUMCAST_CHECK(layer.units > 0);
    FORUMCAST_CHECK(layer.fan_in == expect_in);
    FORUMCAST_CHECK(layer.scales.size() == layer.units);
    FORUMCAST_CHECK(layer.bias.size() == layer.units);
    FORUMCAST_CHECK(layer.bias_correction.size() == layer.units);
    const std::size_t padded = pad_to(layer.fan_in, kPad);
    if (layer.padded_k != padded ||
        layer.weights.size() != layer.units * padded) {
      // Stored unpadded (the bundle format): re-pad and rebuild row sums.
      FORUMCAST_CHECK(layer.weights.size() == layer.units * layer.fan_in);
      std::vector<std::int8_t> padded_weights(layer.units * padded, 0);
      for (std::size_t u = 0; u < layer.units; ++u) {
        std::memcpy(padded_weights.data() + u * padded,
                    layer.weights.data() + u * layer.fan_in, layer.fan_in);
      }
      layer.weights = std::move(padded_weights);
      layer.padded_k = padded;
    }
    layer.row_sums.assign(layer.units, 0);
    for (std::size_t u = 0; u < layer.units; ++u) {
      std::int32_t sum = 0;
      const std::int8_t* qrow = layer.weights.data() + u * layer.padded_k;
      for (std::size_t i = 0; i < layer.fan_in; ++i) sum += qrow[i];
      layer.row_sums[u] = sum;
    }
    pack_layer(layer);
    expect_in = layer.units;
  }
  QuantizedMlp q;
  q.input_dim_ = input_dim;
  q.layers_ = std::move(layers);
  return q;
}

void QuantizedMlp::forward_batch_into(Tensor<const double> x,
                                      Tensor<double> out) const {
  FORUMCAST_CHECK(x.cols() == input_dim_);
  FORUMCAST_CHECK(out.rows() == x.rows() && out.cols() == output_dim());
  const std::size_t n = x.rows();
  Workspace::Frame frame;
  Workspace& ws = frame.workspace();

  std::size_t max_units = 0, max_padded = 0;
  for (const QuantizedLayer& layer : layers_) {
    max_units = std::max(max_units, layer.units);
    max_padded = std::max(max_padded, layer.padded_k);
  }
  // Ping-pong fp64 activations plus per-layer int8/int32 scratch.
  double* act[2] = {ws.alloc<double>(n * max_units),
                    ws.alloc<double>(n * max_units)};
  std::int8_t* qx = ws.alloc<std::int8_t>(n * max_padded);
  double* x_scales = ws.alloc<double>(n);
  std::int32_t* acc = ws.alloc<std::int32_t>(n * max_units);

  // The packed VNNI path wants +128-biased activation bytes; padding lanes
  // multiply zero weights either way, so the shared memset stays zero.
  const bool packed = use_packed_vnni();
  const QuantizeBlockFn qblock =
      packed ? quantize_block_biased() : quantize_block();
  const DequantBlockFn dblock = dequant_block();
  // Zero the int8 block once per forward. Padding lanes only ever multiply
  // zero weights, so stale bytes from a previous layer are harmless — the
  // memset just keeps every byte the kernels read initialized.
  std::memset(qx, 0, n * max_padded);

  Tensor<const double> source = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const QuantizedLayer& layer = layers_[l];
    // Dynamic per-sample input quantization over the whole block.
    qblock(source, layer.fan_in, layer.padded_k, qx, x_scales);

#if defined(__AVX512VNNI__) && defined(__AVX512BW__) && defined(__AVX512F__)
    if (packed) {
      gemm_s8u_vnni_packed(n, layer.units, layer.fan_in, layer.padded_k, qx,
                           layer.padded_k, layer.packed.data(), acc,
                           layer.units, layer.packed_row_sums.data());
    } else {
      gemm_s8_auto(n, layer.units, layer.padded_k, qx, layer.padded_k,
                   layer.weights.data(), layer.padded_k, acc, layer.units);
    }
#else
    gemm_s8_auto(n, layer.units, layer.padded_k, qx, layer.padded_k,
                 layer.weights.data(), layer.padded_k, acc, layer.units);
#endif

    const bool last = l + 1 == layers_.size();
    Tensor<double> next = last ? out : Tensor<double>(act[l % 2], n, layer.units);
    dblock(acc, layer, x_scales, next);
    source = next;
  }
}

}  // namespace forumcast::ml
