// Int8 inference path for the vote MLP.
//
// Scheme (dynamic per-row symmetric quantization):
//   - Weights: per-output-row symmetric int8. scale_u = max|W[u]| / 127,
//     q[u][i] = round(W[u][i]/scale_u) clamped to ±127. The fp64 master
//     weights stay canonical — a QuantizedMlp is always derived, never the
//     source of truth.
//   - Inputs: per-sample per-layer dynamic symmetric int8, same rule. Layer
//     activations stay fp64 between layers; each layer re-quantizes its own
//     input row.
//   - Accumulation: int32, exact (127·127·fan_in is far below 2^31 for
//     feature-vector-scale nets). Dequantize as
//       y[r][u] = acc · (scale_x[r]·scale_w[u]) + bias[u] + bias_corr[u]
//     in fp64 (the first multiply-add fused on FMA targets), then the fp64
//     activation.
//   - Bias correction: quantization error W − scale·q has a nonzero mean
//     effect under the training input distribution. With calibration data,
//     bias_corr[u] = Σ_i (W[u][i] − scale_u·q[u][i]) · μ_i where μ is the
//     mean input of that layer over the calibration rows. Without
//     calibration (e.g. a bundle quantized at load), the correction is zero.
//
// Batch invariance: row scales depend only on that row and integer
// accumulation is exact, so a sample scored alone (a batch of one) is
// bit-identical to the same sample scored inside any batch — the
// per-pair/batch digest parity the serving path CHECKs survives
// quantization.
//
// Dispatch: one decision per process. Builds with AVX-512 F/VL/BW/VNNI, on
// CPUs that report all four, run the packed VNNI path (vector quantizer,
// packed-B dpbusd gemm, vector dequantizer); every other host runs the
// scalar reference path. Both return identical bits: the vector kernels
// repeat the reference's per-element IEEE operations and only reschedule
// exact integer adds.
//
// Weight rows are stored padded with zeros to a multiple of kPad so the
// vector kernels need no tail handling; zero products are exact no-ops.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/activations.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "ml/tensor.hpp"

namespace forumcast::ml {

/// The reference gemm: c(n×m) = a(n×k) · b(m×k)^T in exact int32
/// arithmetic. Row strides lda/ldb/ldc are in elements.
void gemm_s8_scalar(std::size_t n, std::size_t m, std::size_t k,
                    const std::int8_t* a, std::size_t lda, const std::int8_t* b,
                    std::size_t ldb, std::int32_t* c, std::size_t ldc);

/// Name of the path QuantizedMlp runs on this host: "avx512vnni" (packed
/// VNNI) or "scalar" (the reference).
const char* gemm_s8_variant();

/// One quantized layer: padded int8 weights plus everything needed to
/// dequantize. `weights` is units × padded_k row-major; `row_sums[u]` is the
/// exact Σ_i q[u][i] (used by the VNNI unsigned-offset trick).
struct QuantizedLayer {
  std::size_t units = 0;
  std::size_t fan_in = 0;
  std::size_t padded_k = 0;
  Activation activation = Activation::Identity;
  std::vector<std::int8_t> weights;
  std::vector<std::int32_t> row_sums;
  std::vector<double> scales;
  std::vector<double> bias;
  std::vector<double> bias_correction;
  // Runtime-only VNNI layout, rebuilt whenever weights are (never
  // serialized): `packed` interleaves units in blocks of 16 so one dpbusd
  // covers 16 output units × 4 k-steps — layout [unit_block][k/4][16][4],
  // units zero-padded to a multiple of 16. `packed_row_sums` is row_sums
  // zero-padded to the same unit count.
  std::vector<std::int8_t> packed;
  std::vector<std::int32_t> packed_row_sums;
};

class QuantizedMlp {
 public:
  /// Weight-row padding granularity: 64 int8 lanes, one zmm register — a
  /// whole number of the packed kernel's 4-lane dpbusd groups.
  static constexpr std::size_t kPad = 64;

  /// Quantizes `net` with zero bias correction (no calibration data — the
  /// load-time regeneration path).
  static QuantizedMlp from(const Mlp& net);

  /// Quantizes `net` with bias correction calibrated on `calibration` (rows
  /// of fit-time network inputs, already scaled — one sample per row).
  static QuantizedMlp from(const Mlp& net, const Matrix& calibration);

  /// Rebuilds from decoded layers (bundle load); recomputes padding and
  /// row_sums if the stored layers carry unpadded weights.
  static QuantizedMlp from_layers(std::size_t input_dim,
                                  std::vector<QuantizedLayer> layers);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t output_dim() const { return layers_.back().units; }
  const std::vector<QuantizedLayer>& quantized_layers() const { return layers_; }

  /// Batched forward: x is rows × input_dim, out must be rows × output_dim.
  /// Scratch lives in the calling thread's Workspace arena. A row's output
  /// does not depend on the other rows in the batch.
  void forward_batch_into(Tensor<const double> x, Tensor<double> out) const;

 private:
  std::size_t input_dim_ = 0;
  std::vector<QuantizedLayer> layers_;
};

}  // namespace forumcast::ml
