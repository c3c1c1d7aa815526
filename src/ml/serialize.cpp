#include "ml/serialize.hpp"

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

}  // namespace forumcast::ml
