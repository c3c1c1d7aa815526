#include "ml/matrix_factorization.hpp"

#include <numeric>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::ml {

MatrixFactorization::MatrixFactorization(MatrixFactorizationConfig config)
    : config_(config) {
  FORUMCAST_CHECK(config_.latent_dim > 0);
}

void MatrixFactorization::fit(std::span<const Rating> ratings,
                              std::size_t num_users, std::size_t num_items) {
  FORUMCAST_CHECK(!ratings.empty());
  FORUMCAST_CHECK(num_users > 0 && num_items > 0);
  for (const auto& r : ratings) {
    FORUMCAST_CHECK(r.user < num_users);
    FORUMCAST_CHECK(r.item < num_items);
  }

  const std::size_t d = config_.latent_dim;
  util::Rng rng(config_.seed);
  auto init = [&](std::vector<double>& v, std::size_t n) {
    v.resize(n);
    for (double& x : v) x = rng.normal(0.0, 0.05);
  };
  init(user_factors_, num_users * d);
  init(item_factors_, num_items * d);
  user_bias_.assign(num_users, 0.0);
  item_bias_.assign(num_items, 0.0);

  global_mean_ = 0.0;
  for (const auto& r : ratings) global_mean_ += r.value;
  global_mean_ /= static_cast<double>(ratings.size());

  std::vector<std::size_t> order(ratings.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  const double lr = config_.learning_rate;
  const double reg = config_.l2;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t idx : order) {
      const Rating& r = ratings[idx];
      double* pu = user_factors_.data() + r.user * d;
      double* qi = item_factors_.data() + r.item * d;
      double pred = global_mean_ + user_bias_[r.user] + item_bias_[r.item];
      for (std::size_t k = 0; k < d; ++k) pred += pu[k] * qi[k];
      const double err = r.value - pred;
      user_bias_[r.user] += lr * (err - reg * user_bias_[r.user]);
      item_bias_[r.item] += lr * (err - reg * item_bias_[r.item]);
      for (std::size_t k = 0; k < d; ++k) {
        const double pu_k = pu[k];
        pu[k] += lr * (err * qi[k] - reg * pu_k);
        qi[k] += lr * (err * pu_k - reg * qi[k]);
      }
    }
  }
  fitted_ = true;
}

double MatrixFactorization::predict(std::size_t user, std::size_t item) const {
  FORUMCAST_CHECK(fitted());
  const std::size_t d = config_.latent_dim;
  double pred = global_mean_;
  const bool known_user = user < user_bias_.size();
  const bool known_item = item < item_bias_.size();
  if (known_user) pred += user_bias_[user];
  if (known_item) pred += item_bias_[item];
  if (known_user && known_item) {
    const double* pu = user_factors_.data() + user * d;
    const double* qi = item_factors_.data() + item * d;
    for (std::size_t k = 0; k < d; ++k) pred += pu[k] * qi[k];
  }
  return pred;
}

}  // namespace forumcast::ml
