// Predictor for v_{u,q} — net votes on u's answer to q (Sec. II-A.2).
//
// Fully-connected network per paper eq. (1): default L = 4 with 20 ReLU
// units per hidden layer. One deviation, documented in DESIGN.md: the output
// layer is linear rather than σ, because net votes are signed integers and a
// ReLU/tanh output could not represent the data's negative votes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "artifact/artifact.hpp"
#include "ml/mlp.hpp"
#include "ml/scaler.hpp"

namespace forumcast::core {

struct VotePredictorConfig {
  std::vector<std::size_t> hidden_units = {20, 20, 20};  ///< L = 4 total layers
  ml::Activation hidden_activation = ml::Activation::ReLU;
  double learning_rate = 1e-3;
  double weight_decay = 1e-4;
  std::size_t epochs = 150;
  std::size_t batch_size = 32;
  std::uint64_t seed = 17;
  /// Targets are standardized internally; predictions are de-standardized.
  bool standardize_targets = true;
};

class VotePredictor {
 public:
  explicit VotePredictor(VotePredictorConfig config = {});

  /// Trains with minibatch Adam on mean squared error. Each minibatch is one
  /// Mlp::train_batch step (blocked-GEMM forward and backward); gradients
  /// accumulate in sample order, bit-equal to per-sample backprop.
  void fit(std::span<const std::vector<double>> rows,
           std::span<const double> targets);

  /// v̂ for one raw feature row — a batch of one through predict_batch().
  double predict(std::span<const double> features) const;

  /// The inference entry: raw (unscaled) feature rows in, one estimate per
  /// row out. One blocked-GEMM forward pass.
  void predict_batch(ml::Tensor<const double> rows, std::span<double> out) const;

  bool fitted() const { return fitted_; }
  /// Feature dimension the fitted model expects.
  std::size_t input_dim() const { return scaler_.dimension(); }

  /// Model-bundle codec (scaler, network, and the target
  /// de-standardization); a decoded predictor is bit-identical in prediction.
  void encode(artifact::Encoder& enc) const;
  static VotePredictor decode(artifact::Decoder& dec);

 private:
  VotePredictorConfig config_;
  ml::StandardScaler scaler_;
  std::vector<ml::LayerSpec> layer_specs(std::size_t) const;
  std::unique_ptr<ml::Mlp> network_;
  double target_mean_ = 0.0;
  double target_scale_ = 1.0;
  bool fitted_ = false;
};

}  // namespace forumcast::core
