// Int8 inference path: the dispatched forward against a plain-loop
// reference, scalar/batch bit parity, fp64↔int8 quality (AUC delta bound),
// and the kQuantizedMlp bundle section under corruption and truncation.
#include "ml/quant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "artifact/artifact.hpp"
#include "core/vote_predictor.hpp"
#include "eval/metrics.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "ml/serialize.hpp"
#include "ml/workspace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::ml {
namespace {

// ---------- dispatch ----------

TEST(GemmS8, VariantNameIsKnown) {
  const std::string variant = gemm_s8_variant();
  EXPECT_TRUE(variant == "scalar" || variant == "avx512vnni") << variant;
}

// ---------- QuantizedMlp ----------

Mlp small_net(std::uint64_t seed = 11) {
  return Mlp(10,
             {{20, Activation::ReLU}, {20, Activation::ReLU},
              {1, Activation::Identity}},
             seed);
}

Matrix random_rows(util::Rng& rng, std::size_t rows, std::size_t cols) {
  Matrix x(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& v : x.row(r)) v = rng.normal();
  }
  return x;
}

// One row scored alone: a batch of one through forward_batch_into.
double forward_one(const QuantizedMlp& net, std::span<const double> x) {
  Workspace::Frame frame;
  Tensor<double> out = frame.workspace().tensor<double>(1, net.output_dim());
  net.forward_batch_into(one_row(x), out);
  return out(0, 0);
}

// acc·(sx·sw) + bias as the scheme defines it: fused on targets with FMA.
double dequant_mul_add(double acc, double scale, double bias) {
#if defined(__FMA__)
  return std::fma(acc, scale, bias);
#else
  return acc * scale + bias;
#endif
}

// The int8 scheme written out as plain loops over quantized_layers(), with
// no kernel, padding or packed layout: per-row scale max|x|/127 (1 for an
// all-zero row), trunc(x·inv ± 0.5) clamped to ±127, an int32 dot product
// over fan_in, then acc·(sx·sw) + bias + bias_correction and the activation.
Matrix reference_forward(const QuantizedMlp& net, const Matrix& x) {
  Matrix source = x;
  for (const QuantizedLayer& layer : net.quantized_layers()) {
    Matrix next(source.rows(), layer.units);
    std::vector<std::int32_t> qx(layer.fan_in);
    for (std::size_t r = 0; r < source.rows(); ++r) {
      const std::span<const double> row = std::as_const(source).row(r);
      double max_abs = 0.0;
      for (std::size_t i = 0; i < layer.fan_in; ++i) {
        max_abs = std::max(max_abs, std::fabs(row[i]));
      }
      const double sx = max_abs > 0.0 ? max_abs / 127.0 : 1.0;
      const double inv = 1.0 / sx;
      for (std::size_t i = 0; i < layer.fan_in; ++i) {
        const double scaled = row[i] * inv;
        const double rounded = std::trunc(scaled + (scaled >= 0.0 ? 0.5 : -0.5));
        qx[i] = std::clamp(static_cast<std::int32_t>(rounded), -127, 127);
      }
      for (std::size_t u = 0; u < layer.units; ++u) {
        std::int32_t acc = 0;
        for (std::size_t i = 0; i < layer.fan_in; ++i) {
          acc += qx[i] * layer.weights[u * layer.padded_k + i];
        }
        const double pre = dequant_mul_add(static_cast<double>(acc),
                                           sx * layer.scales[u], layer.bias[u]) +
                           layer.bias_correction[u];
        next(r, u) = activate(layer.activation, pre);
      }
    }
    source = std::move(next);
  }
  return source;
}

TEST(QuantizedMlp, DispatchedPathMatchesPlainLoopReferenceBitForBit) {
  // Whichever path this host dispatches to (packed VNNI with its vector
  // quantize/dequant, or the scalar reference) must return the bits of the
  // plain-loop scheme. Shapes cover one and several 16-unit blocks, fan_in
  // below, across and past the 8-lane and 64-lane boundaries, calibrated and
  // uncalibrated bias terms, and a hidden layer the vector dequant hands to
  // the libm loop.
  util::Rng rng(31);
  for (const std::size_t fan_in : {10u, 34u, 65u}) {
    for (const Activation hidden : {Activation::ReLU, Activation::Tanh}) {
      Mlp net(fan_in,
              {{20, Activation::ReLU}, {20, hidden}, {1, Activation::Identity}},
              fan_in + 3);
      // Fresh nets have all-zero biases, under which acc·(sx·sw) + bias
      // rounds the same fused or not; a fitted net's biases do not.
      for (double& p : net.params()) p += rng.uniform(-0.1, 0.1);
      const Matrix calibration = random_rows(rng, 64, fan_in);
      for (const bool calibrated : {false, true}) {
        const QuantizedMlp quantized = calibrated
                                           ? QuantizedMlp::from(net, calibration)
                                           : QuantizedMlp::from(net);
        for (const std::size_t rows : {1u, 7u, 33u, 256u}) {
          Matrix x = random_rows(rng, rows, fan_in);
          if (rows > 3) {
            for (double& v : x.row(3)) v = 0.0;  // the scale-of-1 branch
          }
          const Matrix expected = reference_forward(quantized, x);
          Workspace::Frame frame;
          Tensor<double> got =
              frame.workspace().tensor<double>(rows, quantized.output_dim());
          quantized.forward_batch_into(x.view(), got);
          for (std::size_t r = 0; r < rows; ++r) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(expected(r, 0)),
                      std::bit_cast<std::uint64_t>(got(r, 0)))
                << "fan_in=" << fan_in << " hidden=" << activation_name(hidden)
                << " calibrated=" << calibrated << " rows=" << rows
                << " row=" << r << " variant=" << gemm_s8_variant();
          }
        }
      }
    }
  }
}

TEST(QuantizedMlp, TracksTheFp64NetworkClosely) {
  const Mlp net = small_net();
  const QuantizedMlp quantized = QuantizedMlp::from(net);
  util::Rng rng(7);
  const Matrix x = random_rows(rng, 64, net.input_dim());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double exact = net.forward(x.row(r))[0];
    const double approx = forward_one(quantized, x.row(r));
    // Freshly initialized weights live in ~[-0.5, 0.5]; two int8 layers keep
    // the error well inside this envelope.
    EXPECT_NEAR(approx, exact, 0.05) << "row " << r;
  }
}

TEST(QuantizedMlp, ScalarEqualsBatchBitForBit) {
  // The serving digest CHECKs per-pair/batch parity, and a per-pair score is
  // a batch of one; the quantized path must preserve it. Per-row dynamic
  // scales + exact int32 accumulation make the batch layout irrelevant.
  const Mlp net = small_net();
  const QuantizedMlp quantized = QuantizedMlp::from(net);
  util::Rng rng(13);
  const Matrix x = random_rows(rng, 33, net.input_dim());
  Workspace::Frame frame;
  Tensor<double> batch_out =
      frame.workspace().tensor<double>(x.rows(), quantized.output_dim());
  quantized.forward_batch_into(x.view(), batch_out);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double scalar = forward_one(quantized, x.row(r));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar),
              std::bit_cast<std::uint64_t>(batch_out(r, 0)))
        << "row " << r;
  }
}

TEST(QuantizedMlp, CalibrationOnlyChangesTheBiasTerm) {
  const Mlp net = small_net();
  util::Rng rng(19);
  const Matrix calibration = random_rows(rng, 128, net.input_dim());
  const QuantizedMlp plain = QuantizedMlp::from(net);
  const QuantizedMlp calibrated = QuantizedMlp::from(net, calibration);
  ASSERT_EQ(plain.quantized_layers().size(),
            calibrated.quantized_layers().size());
  for (std::size_t l = 0; l < plain.quantized_layers().size(); ++l) {
    const QuantizedLayer& a = plain.quantized_layers()[l];
    const QuantizedLayer& b = calibrated.quantized_layers()[l];
    EXPECT_EQ(a.weights, b.weights) << "layer " << l;
    EXPECT_EQ(a.scales, b.scales) << "layer " << l;
    EXPECT_EQ(a.bias, b.bias) << "layer " << l;
    bool all_zero = true;
    for (double corr : a.bias_correction) all_zero &= corr == 0.0;
    EXPECT_TRUE(all_zero) << "uncalibrated correction must be zero";
  }
}

// ---------- quality: fp64 vs int8 AUC ----------

TEST(QuantizedMlp, VotePredictorAucDeltaWithinBound) {
  // Synthetic regression task with enough signal for a meaningful ranking:
  // does switching inference to int8 move a downstream ranking metric?
  util::Rng rng(101);
  const std::size_t dim = 12;
  const std::size_t train_n = 400;
  const std::size_t test_n = 300;
  std::vector<double> true_w(dim);
  for (double& w : true_w) w = rng.normal();

  const auto make_split = [&](std::size_t n, std::vector<std::vector<double>>& xs,
                              std::vector<double>& ys) {
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> x(dim);
      double y = 0.0;
      for (std::size_t j = 0; j < dim; ++j) {
        x[j] = rng.normal();
        y += true_w[j] * x[j];
      }
      y += 0.3 * x[0] * x[1] + rng.normal(0.0, 0.25);
      xs.push_back(std::move(x));
      ys.push_back(y);
    }
  };
  std::vector<std::vector<double>> train_x, test_x;
  std::vector<double> train_y, test_y;
  make_split(train_n, train_x, train_y);
  make_split(test_n, test_x, test_y);

  core::VotePredictorConfig config;
  config.epochs = 30;
  core::VotePredictor fp64(config);
  fp64.fit(train_x, train_y);

  // Same fitted master weights, int8 inference (the load-time regeneration
  // path — no calibration, the weaker of the two quantization modes).
  core::VotePredictorConfig qconfig = config;
  core::VotePredictor int8(qconfig);
  int8.fit(train_x, train_y);
  int8.quantize_from_master();
  ASSERT_TRUE(int8.quantized());
  ASSERT_FALSE(fp64.quantized());

  // Binarize at the median: AUC asks "do high-vote answers rank first?".
  std::vector<double> sorted = test_y;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  std::vector<int> labels(test_n);
  std::vector<double> fp64_scores(test_n), int8_scores(test_n);
  for (std::size_t i = 0; i < test_n; ++i) {
    labels[i] = test_y[i] > median ? 1 : 0;
    fp64_scores[i] = fp64.predict(test_x[i]);
    int8_scores[i] = int8.predict(test_x[i]);
  }
  const double fp64_auc = eval::auc(fp64_scores, labels);
  const double int8_auc = eval::auc(int8_scores, labels);
  EXPECT_GT(fp64_auc, 0.8) << "task must be learnable for the bound to mean "
                              "anything";
  EXPECT_LE(std::abs(fp64_auc - int8_auc), 0.005)
      << "fp64 " << fp64_auc << " vs int8 " << int8_auc;
}

// ---------- serialization ----------

std::string quantized_bundle_section(const QuantizedMlp& model) {
  artifact::Encoder enc;
  encode_quantized_mlp(model, enc);
  return enc.bytes();
}

TEST(QuantizedMlpSerialize, RoundTripsBitIdentically) {
  const Mlp net = small_net();
  util::Rng rng(23);
  const Matrix calibration = random_rows(rng, 64, net.input_dim());
  const QuantizedMlp original = QuantizedMlp::from(net, calibration);

  artifact::Decoder dec(quantized_bundle_section(original), "quantized_mlp");
  const QuantizedMlp decoded = decode_quantized_mlp(dec);
  dec.finish();

  // Bundle stores unpadded weights; decode re-pads and rebuilds row sums.
  ASSERT_EQ(decoded.quantized_layers().size(),
            original.quantized_layers().size());
  for (std::size_t l = 0; l < original.quantized_layers().size(); ++l) {
    const QuantizedLayer& a = original.quantized_layers()[l];
    const QuantizedLayer& b = decoded.quantized_layers()[l];
    EXPECT_EQ(a.weights, b.weights);
    EXPECT_EQ(a.row_sums, b.row_sums);
    EXPECT_EQ(a.scales, b.scales);
    EXPECT_EQ(a.bias, b.bias);
    EXPECT_EQ(a.bias_correction, b.bias_correction);
  }
  const Matrix probe = random_rows(rng, 16, net.input_dim());
  for (std::size_t r = 0; r < probe.rows(); ++r) {
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(forward_one(original, probe.row(r))),
        std::bit_cast<std::uint64_t>(forward_one(decoded, probe.row(r))));
  }
}

TEST(QuantizedMlpSerialize, TruncationSweepAlwaysThrowsNamedErrors) {
  const QuantizedMlp model = QuantizedMlp::from(small_net());
  const std::string payload = quantized_bundle_section(model);
  // Every prefix must be rejected — partial state can never come back. Step
  // coarsely through the bulk and finely near field boundaries at the start.
  for (std::size_t cut = 0; cut < payload.size();
       cut += (cut < 64 ? 1 : 37)) {
    artifact::Decoder dec(payload.substr(0, cut), "quantized_mlp");
    EXPECT_THROW(decode_quantized_mlp(dec), util::CheckError)
        << "truncated at " << cut << " of " << payload.size();
  }
}

TEST(QuantizedMlpSerialize, BundleFramingCatchesCorruption) {
  // Through the real bundle framing: any flipped payload byte must be caught
  // by the section CRC before decode_quantized_mlp sees it.
  const QuantizedMlp model = QuantizedMlp::from(small_net());
  std::ostringstream out;
  {
    artifact::BundleWriter writer(out);
    artifact::Encoder enc;
    encode_quantized_mlp(model, enc);
    writer.section(artifact::SectionKind::kQuantizedMlp, enc);
    writer.finish();
  }
  const std::string bundle = std::move(out).str();

  const auto load = [&](const std::string& bytes) {
    std::istringstream in(bytes);
    artifact::BundleReader reader(in);
    auto dec = reader.expect(artifact::SectionKind::kQuantizedMlp);
    const QuantizedMlp decoded = decode_quantized_mlp(dec);
    dec.finish();
    reader.finish();
    return decoded;
  };
  EXPECT_NO_THROW(load(bundle));  // the unmodified bundle is fine

  for (std::size_t pos = 0; pos < bundle.size(); pos += 13) {
    std::string corrupt = bundle;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    EXPECT_THROW(load(corrupt), util::CheckError) << "flip at " << pos;
  }
  for (std::size_t cut = 0; cut < bundle.size(); cut += 17) {
    EXPECT_THROW(load(bundle.substr(0, cut)), util::CheckError)
        << "truncated at " << cut;
  }
}

TEST(QuantizedMlpSerialize, DecodeRejectsShapeLies) {
  const QuantizedMlp model = QuantizedMlp::from(small_net());
  // Claim one more unit than the weight payload carries.
  artifact::Encoder enc;
  const QuantizedLayer& layer = model.quantized_layers().front();
  enc.u64(model.input_dim());
  enc.u64(1);
  enc.u64(layer.units + 1);
  enc.u64(layer.fan_in);
  enc.str(activation_name(layer.activation));
  std::vector<std::int8_t> unpadded(layer.units * layer.fan_in, 1);
  enc.i8s(unpadded);
  enc.f64s(layer.scales, "scales");
  enc.f64s(layer.bias, "bias");
  enc.f64s(layer.bias_correction, "corr");
  artifact::Decoder dec(enc.bytes(), "quantized_mlp");
  EXPECT_THROW(decode_quantized_mlp(dec), util::CheckError);
}

}  // namespace
}  // namespace forumcast::ml
