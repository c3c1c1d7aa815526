#include "ml/serialize.hpp"

#include <cstring>
#include <string>

#include "util/check.hpp"

namespace forumcast::ml {

namespace {

// Sanity cap on any serialized dimension / count. Garbage input must fail
// with a named error before it turns into a multi-gigabyte allocation.
constexpr std::size_t kMaxSerializedCount = std::size_t{1} << 28;

}  // namespace

Activation activation_from_name(const std::string& name) {
  for (Activation act : {Activation::Identity, Activation::ReLU,
                         Activation::Tanh, Activation::Sigmoid,
                         Activation::Softplus}) {
    if (activation_name(act) == name) return act;
  }
  FORUMCAST_CHECK_MSG(false, "unknown activation '" << name << "'");
  return Activation::Identity;
}

void encode_scaler(const StandardScaler& scaler, artifact::Encoder& enc) {
  FORUMCAST_CHECK_MSG(scaler.fitted(), "cannot encode an unfitted scaler");
  enc.f64s(scaler.mean(), "scaler mean");
  enc.f64s(scaler.scale(), "scaler scale");
}

StandardScaler decode_scaler(artifact::Decoder& dec) {
  auto mean = dec.f64s("scaler mean");
  auto scale = dec.f64s("scaler scale");
  FORUMCAST_CHECK_MSG(!mean.empty() && mean.size() == scale.size(),
                      "scaler moments dimension mismatch: " << mean.size()
                                                            << " vs "
                                                            << scale.size());
  return StandardScaler::from_moments(std::move(mean), std::move(scale));
}

void encode_logistic(const LogisticRegression& model, artifact::Encoder& enc) {
  FORUMCAST_CHECK_MSG(model.fitted(), "cannot encode an unfitted model");
  enc.f64(model.bias(), "logistic bias");
  enc.f64s(model.weights(), "logistic weights");
}

LogisticRegression decode_logistic(artifact::Decoder& dec) {
  const double bias = dec.f64("logistic bias");
  auto weights = dec.f64s("logistic weights");
  FORUMCAST_CHECK_MSG(!weights.empty(), "logistic weights are empty");
  return LogisticRegression::from_parameters(std::move(weights), bias);
}

void encode_mlp(const Mlp& model, artifact::Encoder& enc) {
  enc.u64(model.input_dim());
  enc.u64(model.layer_count());
  for (const auto& layer : model.layers()) {
    enc.u64(layer.units);
    enc.str(activation_name(layer.activation));
  }
  enc.f64s(model.params(), "mlp params");
}

Mlp decode_mlp(artifact::Decoder& dec) {
  const auto input_dim = dec.u64("mlp input dim");
  FORUMCAST_CHECK_MSG(input_dim >= 1 && input_dim <= kMaxSerializedCount,
                      "mlp input dim out of range: " << input_dim);
  const auto layer_count = dec.u64("mlp layer count");
  FORUMCAST_CHECK_MSG(layer_count >= 1 && layer_count <= kMaxSerializedCount,
                      "mlp layer count out of range: " << layer_count);
  std::vector<LayerSpec> layers;
  layers.reserve(static_cast<std::size_t>(layer_count));
  for (std::uint64_t l = 0; l < layer_count; ++l) {
    const auto units = dec.u64("mlp layer units");
    FORUMCAST_CHECK_MSG(units >= 1 && units <= kMaxSerializedCount,
                        "mlp layer units out of range: " << units);
    layers.push_back({static_cast<std::size_t>(units),
                      activation_from_name(dec.str("mlp activation name"))});
  }
  auto params = dec.f64s("mlp params");
  Mlp model(static_cast<std::size_t>(input_dim), std::move(layers),
            /*seed=*/0);
  FORUMCAST_CHECK_MSG(model.param_count() == params.size(),
                      "mlp param count mismatch: " << params.size() << " vs "
                                                   << model.param_count());
  std::copy(params.begin(), params.end(), model.params().begin());
  return model;
}

void encode_quantized_mlp(const QuantizedMlp& model, artifact::Encoder& enc) {
  enc.u64(model.input_dim());
  enc.u64(model.quantized_layers().size());
  for (const auto& layer : model.quantized_layers()) {
    enc.u64(layer.units);
    enc.u64(layer.fan_in);
    enc.str(activation_name(layer.activation));
    // Strip the kPad zero padding: the bundle stores exactly units × fan_in.
    std::vector<std::int8_t> unpadded(layer.units * layer.fan_in);
    for (std::size_t u = 0; u < layer.units; ++u) {
      std::memcpy(unpadded.data() + u * layer.fan_in,
                  layer.weights.data() + u * layer.padded_k, layer.fan_in);
    }
    enc.i8s(unpadded);
    enc.f64s(layer.scales, "quantized mlp scales");
    enc.f64s(layer.bias, "quantized mlp bias");
    enc.f64s(layer.bias_correction, "quantized mlp bias correction");
  }
}

QuantizedMlp decode_quantized_mlp(artifact::Decoder& dec) {
  const auto input_dim = dec.u64("quantized mlp input dim");
  FORUMCAST_CHECK_MSG(input_dim >= 1 && input_dim <= kMaxSerializedCount,
                      "quantized mlp input dim out of range: " << input_dim);
  const auto layer_count = dec.u64("quantized mlp layer count");
  FORUMCAST_CHECK_MSG(layer_count >= 1 && layer_count <= kMaxSerializedCount,
                      "quantized mlp layer count out of range: " << layer_count);
  std::vector<QuantizedLayer> layers;
  layers.reserve(static_cast<std::size_t>(layer_count));
  for (std::uint64_t l = 0; l < layer_count; ++l) {
    QuantizedLayer layer;
    const auto units = dec.u64("quantized mlp layer units");
    FORUMCAST_CHECK_MSG(units >= 1 && units <= kMaxSerializedCount,
                        "quantized mlp layer units out of range: " << units);
    const auto fan_in = dec.u64("quantized mlp layer fan-in");
    FORUMCAST_CHECK_MSG(fan_in >= 1 && fan_in <= kMaxSerializedCount,
                        "quantized mlp layer fan-in out of range: " << fan_in);
    layer.units = static_cast<std::size_t>(units);
    layer.fan_in = static_cast<std::size_t>(fan_in);
    layer.activation =
        activation_from_name(dec.str("quantized mlp activation name"));
    layer.weights = dec.i8s("quantized mlp weights");
    FORUMCAST_CHECK_MSG(layer.weights.size() == layer.units * layer.fan_in,
                        "quantized mlp weight count mismatch: "
                            << layer.weights.size() << " vs "
                            << layer.units * layer.fan_in);
    layer.scales = dec.f64s("quantized mlp scales");
    layer.bias = dec.f64s("quantized mlp bias");
    layer.bias_correction = dec.f64s("quantized mlp bias correction");
    FORUMCAST_CHECK_MSG(layer.scales.size() == layer.units &&
                            layer.bias.size() == layer.units &&
                            layer.bias_correction.size() == layer.units,
                        "quantized mlp per-unit vector size mismatch for "
                            << layer.units << " units");
    for (std::size_t u = 0; u < layer.units; ++u) {
      FORUMCAST_CHECK_MSG(layer.scales[u] > 0.0,
                          "quantized mlp scale must be positive: "
                              << layer.scales[u]);
    }
    layers.push_back(std::move(layer));
  }
  return QuantizedMlp::from_layers(static_cast<std::size_t>(input_dim),
                                   std::move(layers));
}

}  // namespace forumcast::ml
