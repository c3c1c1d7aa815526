// Poisson regression (GLM with log link).
//
// The paper's baseline for response-time prediction (Sec. IV-A): regress the
// discretized delay ⌈r⌉ on x_{u,q} and predict its conditional mean.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace forumcast::ml {

struct PoissonRegressionConfig {
  double learning_rate = 0.02;
  double l2 = 1e-4;
  std::size_t epochs = 200;
  std::size_t batch_size = 64;
  std::uint64_t seed = 1;
  /// Hard ceiling on the linear predictor; the fit additionally tightens the
  /// effective ceiling to log(2·max target) so a diverging iterate cannot
  /// produce astronomically large rate predictions.
  double max_linear_predictor = 20.0;
};

class PoissonRegression {
 public:
  explicit PoissonRegression(PoissonRegressionConfig config = {});

  /// Trains on non-negative targets (counts) via minibatch Adam on the
  /// Poisson negative log-likelihood λ − y·log λ, λ = exp(wᵀx + b).
  void fit(std::span<const std::vector<double>> rows,
           std::span<const double> targets);

  /// Predicted conditional mean λ(x). Requires fit().
  double predict_mean(std::span<const double> row) const;

  bool fitted() const { return !weights_.empty(); }
  std::span<const double> weights() const { return weights_; }
  double bias() const { return bias_; }
  const PoissonRegressionConfig& config() const { return config_; }

 private:
  PoissonRegressionConfig config_;
  std::vector<double> weights_;
  double bias_ = 0.0;
  double eta_ceiling_ = 20.0;  ///< effective clamp learned from the targets
};

}  // namespace forumcast::ml
