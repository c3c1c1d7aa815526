// L2-regularized logistic regression.
//
// The paper's a_{u,q} predictor (Sec. II-A.1): a deliberately linear model on
// x_{u,q} to avoid overfitting the extremely sparse answering matrix.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace forumcast::ml {

struct LogisticRegressionConfig {
  double learning_rate = 0.05;
  /// The balanced positive/negative training set is near-separable on active
  /// users, so meaningful ridge strength is needed for out-of-sample ranking.
  double l2 = 0.1;
  std::size_t epochs = 200;
  std::size_t batch_size = 64;
  std::uint64_t seed = 1;
};

class LogisticRegression {
 public:
  explicit LogisticRegression(LogisticRegressionConfig config = {});

  /// Trains on row-major samples with {0,1} labels via minibatch Adam.
  void fit(std::span<const std::vector<double>> rows, std::span<const int> labels);

  /// P(label = 1 | row). Requires fit().
  double predict_probability(std::span<const double> row) const;

  /// Mean negative log-likelihood on a dataset (diagnostics / tests).
  double log_loss(std::span<const std::vector<double>> rows,
                  std::span<const int> labels) const;

  /// Reconstructs a fitted model from stored parameters (deserialization).
  static LogisticRegression from_parameters(std::vector<double> weights,
                                            double bias,
                                            LogisticRegressionConfig config = {});

  bool fitted() const { return !weights_.empty(); }
  std::span<const double> weights() const { return weights_; }
  double bias() const { return bias_; }

 private:
  LogisticRegressionConfig config_;
  std::vector<double> weights_;
  double bias_ = 0.0;
};

}  // namespace forumcast::ml
