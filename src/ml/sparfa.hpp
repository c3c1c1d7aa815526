// SPARFA-style sparse logistic factor analysis (Lan et al., JMLR 2014).
//
// The paper's baseline for the binary "will u answer q" task: a logistic
// matrix-completion model P(Y_{u,q}=1) = σ(w_uᵀ c_q + μ_u) with non-negative
// user loadings W and per-user intercepts, latent dimension 3 (Sec. IV-A).
// Trained by alternating minibatch gradient steps on observed entries with
// L2 on C and L1-ish shrinkage plus a non-negativity projection on W.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace forumcast::ml {

struct SparfaConfig {
  std::size_t latent_dim = 3;
  double learning_rate = 0.05;
  double l2_concepts = 1e-3;   ///< ridge on question concept loadings C
  double l1_loadings = 1e-4;   ///< shrinkage on user loadings W
  std::size_t epochs = 80;
  std::uint64_t seed = 13;
};

struct BinaryObservation {
  std::size_t user = 0;
  std::size_t item = 0;
  int label = 0;  ///< 0 or 1
};

class Sparfa {
 public:
  explicit Sparfa(SparfaConfig config = {});

  void fit(std::span<const BinaryObservation> observations,
           std::size_t num_users, std::size_t num_items);

  /// P(Y_{u,q} = 1); unseen ids fall back to the global intercept.
  double predict_probability(std::size_t user, std::size_t item) const;

  bool fitted() const { return fitted_; }

 private:
  SparfaConfig config_;
  bool fitted_ = false;
  double global_intercept_ = 0.0;
  std::vector<double> user_loadings_;   // W: num_users x d, non-negative
  std::vector<double> item_concepts_;   // C: num_items x d
  std::vector<double> user_intercept_;  // μ_u
};

}  // namespace forumcast::ml
