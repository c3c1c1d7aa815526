#include "ml/sparfa.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/activations.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::ml {

Sparfa::Sparfa(SparfaConfig config) : config_(config) {
  FORUMCAST_CHECK(config_.latent_dim > 0);
}

void Sparfa::fit(std::span<const BinaryObservation> observations,
                 std::size_t num_users, std::size_t num_items) {
  FORUMCAST_CHECK(!observations.empty());
  FORUMCAST_CHECK(num_users > 0 && num_items > 0);
  double positives = 0.0;
  for (const auto& obs : observations) {
    FORUMCAST_CHECK(obs.user < num_users);
    FORUMCAST_CHECK(obs.item < num_items);
    FORUMCAST_CHECK(obs.label == 0 || obs.label == 1);
    positives += obs.label;
  }
  const double rate = std::clamp(positives / static_cast<double>(observations.size()),
                                 1e-6, 1.0 - 1e-6);
  global_intercept_ = std::log(rate / (1.0 - rate));

  const std::size_t d = config_.latent_dim;
  util::Rng rng(config_.seed);
  user_loadings_.resize(num_users * d);
  for (double& w : user_loadings_) w = std::abs(rng.normal(0.0, 0.1));
  item_concepts_.resize(num_items * d);
  for (double& c : item_concepts_) c = rng.normal(0.0, 0.1);
  user_intercept_.assign(num_users, 0.0);

  std::vector<std::size_t> order(observations.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  const double lr = config_.learning_rate;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t idx : order) {
      const auto& obs = observations[idx];
      double* w = user_loadings_.data() + obs.user * d;
      double* c = item_concepts_.data() + obs.item * d;
      double margin = global_intercept_ + user_intercept_[obs.user];
      for (std::size_t k = 0; k < d; ++k) margin += w[k] * c[k];
      const double err = sigmoid(margin) - static_cast<double>(obs.label);

      user_intercept_[obs.user] -= lr * err;
      for (std::size_t k = 0; k < d; ++k) {
        const double wk = w[k];
        // W step: gradient + L1 shrinkage + non-negativity projection.
        w[k] -= lr * (err * c[k] + config_.l1_loadings * (wk > 0.0 ? 1.0 : 0.0));
        if (w[k] < 0.0) w[k] = 0.0;
        // C step: gradient + ridge.
        c[k] -= lr * (err * wk + config_.l2_concepts * c[k]);
      }
    }
  }
  fitted_ = true;
}

double Sparfa::predict_probability(std::size_t user, std::size_t item) const {
  FORUMCAST_CHECK(fitted());
  double margin = global_intercept_;
  const std::size_t d = config_.latent_dim;
  const bool known_user = user * d < user_loadings_.size();
  const bool known_item = item * d < item_concepts_.size();
  if (known_user) margin += user_intercept_[user];
  if (known_user && known_item) {
    const double* w = user_loadings_.data() + user * d;
    const double* c = item_concepts_.data() + item * d;
    for (std::size_t k = 0; k < d; ++k) margin += w[k] * c[k];
  }
  return sigmoid(margin);
}

}  // namespace forumcast::ml
