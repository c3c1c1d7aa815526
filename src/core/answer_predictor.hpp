// Predictor for a_{u,q} — will user u answer question q? (Sec. II-A.1)
//
// A logistic regression over standardized features: the paper keeps this
// model deliberately linear because the answering matrix is ~0.03 % dense and
// nonlinear models overfit the negatives.
#pragma once

#include <span>
#include <vector>

#include "artifact/artifact.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/scaler.hpp"
#include "ml/tensor.hpp"

namespace forumcast::core {

struct AnswerPredictorConfig {
  ml::LogisticRegressionConfig logistic = {};
};

class AnswerPredictor {
 public:
  explicit AnswerPredictor(AnswerPredictorConfig config = {});

  /// Trains on feature rows with binary labels (1 = answered).
  void fit(std::span<const std::vector<double>> rows, std::span<const int> labels);

  /// P(a_{u,q} = 1 | x). Requires fit(). A batch of one through
  /// predict_probability_batch().
  double predict_probability(std::span<const double> features) const;

  /// The inference entry: raw (unscaled) feature rows in, one probability
  /// per row out.
  void predict_probability_batch(ml::Tensor<const double> rows,
                                 std::span<double> out) const;

  bool fitted() const { return model_.fitted(); }
  /// Feature dimension the fitted model expects.
  std::size_t input_dim() const { return scaler_.dimension(); }

  /// Model-bundle codec (scaler + logistic parameters, not the training
  /// config); a decoded predictor is bit-identical in prediction.
  void encode(artifact::Encoder& enc) const;
  static AnswerPredictor decode(artifact::Decoder& dec);

 private:
  AnswerPredictorConfig config_;
  ml::StandardScaler scaler_;
  ml::LogisticRegression model_;
};

}  // namespace forumcast::core
