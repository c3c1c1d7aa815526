// Model persistence: binary artifact codecs (encode_*/decode_*) speaking the
// artifact::Encoder/Decoder protocol. The model bundle
// (ForecastPipeline::save/load) is the only persistence format, and these
// codecs cover every ml:: piece it carries: scalers, the logistic
// regression and MLPs. Doubles travel as raw IEEE bits, so a decoded model
// predicts bit-identically to the one encoded; decoders validate every count
// and shape and throw util::CheckError naming the offending field.
#pragma once

#include <string>

#include "artifact/artifact.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/mlp.hpp"
#include "ml/scaler.hpp"

namespace forumcast::ml {

/// Parses an activation name written by activation_name(); throws on unknown.
Activation activation_from_name(const std::string& name);

void encode_scaler(const StandardScaler& scaler, artifact::Encoder& enc);
StandardScaler decode_scaler(artifact::Decoder& dec);

void encode_logistic(const LogisticRegression& model, artifact::Encoder& enc);
LogisticRegression decode_logistic(artifact::Decoder& dec);

void encode_mlp(const Mlp& model, artifact::Encoder& enc);
Mlp decode_mlp(artifact::Decoder& dec);

}  // namespace forumcast::ml
