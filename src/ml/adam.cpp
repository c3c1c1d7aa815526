#include "ml/adam.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace forumcast::ml {

Adam::Adam(std::size_t dimension, AdamConfig config)
    : config_(config), first_moment_(dimension, 0.0), second_moment_(dimension, 0.0) {
  FORUMCAST_CHECK(dimension > 0);
  FORUMCAST_CHECK(config_.learning_rate > 0.0);
  FORUMCAST_CHECK(config_.beta1 >= 0.0 && config_.beta1 < 1.0);
  FORUMCAST_CHECK(config_.beta2 >= 0.0 && config_.beta2 < 1.0);
}

void Adam::step(std::span<double> params, std::span<const double> grads) {
  FORUMCAST_CHECK(params.size() == first_moment_.size());
  FORUMCAST_CHECK(grads.size() == first_moment_.size());
  ++steps_;
  const double bias1 = 1.0 - std::pow(config_.beta1, static_cast<double>(steps_));
  const double bias2 = 1.0 - std::pow(config_.beta2, static_cast<double>(steps_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double g = grads[i];
    first_moment_[i] = config_.beta1 * first_moment_[i] + (1.0 - config_.beta1) * g;
    second_moment_[i] = config_.beta2 * second_moment_[i] + (1.0 - config_.beta2) * g * g;
    const double m_hat = first_moment_[i] / bias1;
    const double v_hat = second_moment_[i] / bias2;
    params[i] -= config_.learning_rate *
                 (m_hat / (std::sqrt(v_hat) + config_.epsilon) +
                  config_.weight_decay * params[i]);
  }
}

void Adam::reset() {
  std::fill(first_moment_.begin(), first_moment_.end(), 0.0);
  std::fill(second_moment_.begin(), second_moment_.end(), 0.0);
  steps_ = 0;
}

}  // namespace forumcast::ml
