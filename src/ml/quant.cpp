#include "ml/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ml/workspace.hpp"
#include "util/check.hpp"

// The packed VNNI path is compiled only when the build targets every ISA
// extension it uses (FMA for the dequantizer's multiply-add; every AVX-512
// CPU has it); use_packed_vnni() then confirms them at run time.
#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512BW__) && \
    defined(__AVX512VNNI__) && defined(__FMA__)
#define FORUMCAST_QUANT_VNNI 1
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

// ---------- reference path: plain loops, any CPU ----------

// Block quantization: per-sample symmetric scale plus int8 quantization of
// every row of a layer input. Padding lanes are pre-zeroed by the caller.
void quantize_block_ref(Tensor<const double> src, std::size_t fan_in,
                        std::size_t padded_k, std::int8_t* qx,
                        double* x_scales) {
  for (std::size_t r = 0; r < src.rows(); ++r) {
    const double* row = src.row(r).data();
    const double scale = symmetric_scale(row, fan_in);
    const double inv_scale = 1.0 / scale;
    x_scales[r] = scale;
    std::int8_t* out = qx + r * padded_k;
    for (std::size_t i = 0; i < fan_in; ++i) {
      out[i] = quantize_value(row[i], inv_scale);
    }
  }
}

// acc·(sx·sw) + bias: one fused multiply-add on targets with FMA, a plain
// multiply and add elsewhere. Spelled out rather than left to compiler
// contraction so the bits do not depend on optimization level or inlining.
double dequant_mul_add(double acc, double scale, double bias) {
#if defined(__FMA__)
  return std::fma(acc, scale, bias);
#else
  return acc * scale + bias;
#endif
}

// Dequantize + activate one layer's int32 accumulators into fp64 outputs.
void dequant_block_ref(const std::int32_t* acc, const QuantizedLayer& layer,
                       const double* x_scales, Tensor<double> out) {
  for (std::size_t r = 0; r < out.rows(); ++r) {
    const std::int32_t* arow = acc + r * layer.units;
    double* orow = out.row(r).data();
    const double sx = x_scales[r];
    for (std::size_t u = 0; u < layer.units; ++u) {
      const double pre = dequant_mul_add(static_cast<double>(arow[u]),
                                         sx * layer.scales[u], layer.bias[u]) +
                         layer.bias_correction[u];
      orow[u] = activate(layer.activation, pre);
    }
  }
}

// ---------- packed VNNI path: AVX-512 F/VL/BW/VNNI ----------
//
// Every kernel here returns the reference path's bits: the vector quantizer
// and dequantizer repeat its per-element IEEE operations in the same order,
// and the gemm only reschedules exact integer adds.
//
// The helpers lean on intrinsics (max_pd, cvttpd, extracts, reduce_*) that
// gcc 12 implements with an undefined pass-through operand;
// src/ml/CMakeLists.txt disables the resulting -W(maybe-)uninitialized false
// positive for this one translation unit.
#if defined(FORUMCAST_QUANT_VNNI)

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
  const double max_abs = _mm512_reduce_max_pd(best);
  return max_abs > 0.0 ? max_abs / 127.0 : 1.0;
}

// quantize_value per element — the same IEEE multiply, the same ±0.5 blend
// (the GE comparison treats NaN exactly like the scalar >=), the same
// truncating convert, the same ±127 clamp — then stored +128-biased (the
// uint8 bit pattern q ^ 0x80) so activation rows feed dpbusd's unsigned
// operand directly.
void quantize_row_biased_avx512(const double* row, std::size_t n,
                                double inv_scale, std::int8_t* out) {
  const __m512d inv = _mm512_set1_pd(inv_scale);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d neg_half = _mm512_set1_pd(-0.5);
  const __m256i hi = _mm256_set1_epi32(127);
  const __m256i lo = _mm256_set1_epi32(-127);
  const __m128i flip = _mm_set1_epi8(static_cast<char>(0x80));
  const auto quantize8 = [&](__m512d v) {
    const __m512d scaled = _mm512_mul_pd(v, inv);
    const __mmask8 nonneg =
        _mm512_cmp_pd_mask(scaled, _mm512_setzero_pd(), _CMP_GE_OQ);
    const __m512d adj = _mm512_mask_blend_pd(nonneg, neg_half, half);
    __m256i q = _mm512_cvttpd_epi32(_mm512_add_pd(scaled, adj));
    q = _mm256_max_epi32(_mm256_min_epi32(q, hi), lo);
    return _mm_xor_si128(_mm256_cvtepi32_epi8(q), flip);
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     quantize8(_mm512_loadu_pd(row + i)));
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm_mask_storeu_epi8(out + i, static_cast<__mmask16>(tail),
                         quantize8(_mm512_maskz_loadu_pd(tail, row + i)));
  }
}

void quantize_block_biased_avx512(Tensor<const double> src,
                                  std::size_t fan_in, std::size_t padded_k,
                                  std::int8_t* qx, double* x_scales) {
  // Two passes: all the scale reductions first (independent rows overlap in
  // the out-of-order window far better than a scan→divide→quantize chain per
  // row), then the quantize sweeps.
  for (std::size_t r = 0; r < src.rows(); ++r) {
    x_scales[r] = symmetric_scale_avx512(src.row(r).data(), fan_in);
  }
  for (std::size_t r = 0; r < src.rows(); ++r) {
    quantize_row_biased_avx512(src.row(r).data(), fan_in, 1.0 / x_scales[r],
                               qx + r * padded_k);
  }
}

inline __m512i broadcast_u32(const std::int8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return _mm512_set1_epi32(v);
}

// Packed-B kernel: weight units live in the 16 int32 lanes
// (QuantizedLayer::packed layout), activations broadcast four k-lanes at a
// time — no horizontal reduction at all. `a` holds +128-biased activation
// rows; subtracting 128·row_sums afterwards recovers the signed sums
// exactly. Two accumulators break the dpbusd dependency chain. Only
// ceil(k_used/4) four-lane groups are touched: every group beyond holds
// all-zero weights (and the byte or three of padding inside the last group
// multiplies zero weights too), so skipping the rest of the kPad padding
// changes nothing — and on 20-unit hidden layers it is a 3× cut in dpbusd
// work.
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

// Vector dequant for the activations the vote network uses. The per-element
// operations match dequant_block_ref exactly, including the fused
// multiply-add of dequant_mul_add; max_pd(pre, 0) returns +0.0 for both -0.0
// and NaN inputs, same as the scalar ReLU branch. Layers with transcendental
// activations take the reference libm loop.
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
      __m512d pre = _mm512_fmadd_pd(av, combined,
                                    _mm512_loadu_pd(layer.bias.data() + u));
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
      __m512d pre = _mm512_fmadd_pd(
          av, combined, _mm512_maskz_loadu_pd(tail, layer.bias.data() + u));
      pre = _mm512_add_pd(pre, _mm512_maskz_loadu_pd(
                                   tail, layer.bias_correction.data() + u));
      if (relu) pre = _mm512_max_pd(pre, zero);
      _mm512_mask_storeu_pd(orow + u, tail, pre);
    }
  }
}
#endif  // FORUMCAST_QUANT_VNNI

// The one CPU-feature decision: the packed VNNI path when the build and the
// CPU both have every extension it uses, the reference path otherwise. Hosts
// with AVX2 or AVX-512 but no VNNI take the reference path on purpose —
// int8 has no speed edge over the fp64 forward there.
bool use_packed_vnni() {
#if defined(FORUMCAST_QUANT_VNNI)
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512vl") &&
                         __builtin_cpu_supports("avx512bw") &&
                         __builtin_cpu_supports("avx512vnni");
  return ok;
#else
  return false;
#endif
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

const char* gemm_s8_variant() {
  return use_packed_vnni() ? "avx512vnni" : "scalar";
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

  // Zero the int8 block once per forward. Padding lanes only ever multiply
  // zero weights, so stale bytes from a previous layer are harmless — the
  // memset just keeps every byte the kernels read initialized.
  std::memset(qx, 0, n * max_padded);

  Tensor<const double> source = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const QuantizedLayer& layer = layers_[l];
    const bool last = l + 1 == layers_.size();
    Tensor<double> next = last ? out : Tensor<double>(act[l % 2], n, layer.units);
    // Dynamic per-sample input quantization over the whole block, exact
    // int32 products, fp64 dequantize + activation.
#if defined(FORUMCAST_QUANT_VNNI)
    if (use_packed_vnni()) {
      quantize_block_biased_avx512(source, layer.fan_in, layer.padded_k, qx,
                                   x_scales);
      gemm_s8u_vnni_packed(n, layer.units, layer.fan_in, layer.padded_k, qx,
                           layer.padded_k, layer.packed.data(), acc,
                           layer.units, layer.packed_row_sums.data());
      dequant_block_avx512(acc, layer, x_scales, next);
      source = next;
      continue;
    }
#endif
    quantize_block_ref(source, layer.fan_in, layer.padded_k, qx, x_scales);
    gemm_s8_scalar(n, layer.units, layer.fan_in, qx, layer.padded_k,
                   layer.weights.data(), layer.padded_k, acc, layer.units);
    dequant_block_ref(acc, layer, x_scales, next);
    source = next;
  }
}

}  // namespace forumcast::ml
