// Biased matrix factorization (Koren-style), the paper's net-vote baseline.
//
// v̂_{u,q} = μ + b_u + b_q + p_uᵀ s_q, trained by SGD on observed
// (user, item, value) triples with L2 regularization. Latent dimension
// defaults to 5 as in Sec. IV-A.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace forumcast::ml {

struct MatrixFactorizationConfig {
  std::size_t latent_dim = 5;
  double learning_rate = 0.01;
  double l2 = 0.05;
  std::size_t epochs = 60;
  std::uint64_t seed = 7;
};

struct Rating {
  std::size_t user = 0;
  std::size_t item = 0;
  double value = 0.0;
};

class MatrixFactorization {
 public:
  explicit MatrixFactorization(MatrixFactorizationConfig config = {});

  /// Trains on observed triples; `num_users`/`num_items` bound the id space.
  void fit(std::span<const Rating> ratings, std::size_t num_users,
           std::size_t num_items);

  /// Prediction for any (user, item); unseen ids fall back to the biases
  /// they have (global mean when both are unseen).
  double predict(std::size_t user, std::size_t item) const;

  bool fitted() const { return fitted_; }
  double global_mean() const { return global_mean_; }

 private:
  MatrixFactorizationConfig config_;
  bool fitted_ = false;
  double global_mean_ = 0.0;
  std::vector<double> user_bias_;
  std::vector<double> item_bias_;
  std::vector<double> user_factors_;  // row-major num_users x latent_dim
  std::vector<double> item_factors_;  // row-major num_items x latent_dim
};

}  // namespace forumcast::ml
