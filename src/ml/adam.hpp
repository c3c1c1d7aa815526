// Adam optimizer (Kingma & Ba), matching the paper's training setup.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace forumcast::ml {

struct AdamConfig {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double weight_decay = 0.0;  ///< decoupled L2 (AdamW-style), applied to params
};

class Adam {
 public:
  Adam(std::size_t dimension, AdamConfig config = {});

  /// One update: params -= lr * m̂ / (sqrt(v̂) + eps), with bias correction.
  /// `params` and `grads` must both have the optimizer's dimension.
  void step(std::span<double> params, std::span<const double> grads);

  void reset();

  std::size_t dimension() const { return first_moment_.size(); }
  const AdamConfig& config() const { return config_; }
  std::size_t steps_taken() const { return steps_; }

 private:
  AdamConfig config_;
  std::vector<double> first_moment_;
  std::vector<double> second_moment_;
  std::size_t steps_ = 0;
};

}  // namespace forumcast::ml
