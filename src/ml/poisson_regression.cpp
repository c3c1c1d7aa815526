#include "ml/poisson_regression.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/adam.hpp"
#include "ml/matrix.hpp"
#include "ml/workspace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::ml {

PoissonRegression::PoissonRegression(PoissonRegressionConfig config)
    : config_(config) {}

void PoissonRegression::fit(std::span<const std::vector<double>> rows,
                            std::span<const double> targets) {
  FORUMCAST_CHECK(!rows.empty());
  FORUMCAST_CHECK(rows.size() == targets.size());
  const std::size_t dim = rows.front().size();
  for (const auto& row : rows) FORUMCAST_CHECK(row.size() == dim);
  for (double y : targets) FORUMCAST_CHECK(y >= 0.0);

  std::vector<double> params(dim + 1, 0.0);
  // Warm-start the bias at log(mean target) so early exp() values are sane.
  const double target_mean =
      std::accumulate(targets.begin(), targets.end(), 0.0) /
      static_cast<double>(targets.size());
  params[dim] = std::log(std::max(1e-3, target_mean));
  // Predictions above twice the largest observed target are never useful for
  // this baseline and blow up the RMSE when an iterate diverges.
  const double target_max = *std::max_element(targets.begin(), targets.end());
  eta_ceiling_ = std::min(config_.max_linear_predictor,
                          std::log(std::max(2.0, 2.0 * target_max)));

  std::vector<double> grads(dim + 1, 0.0);
  Adam adam(dim + 1, {.learning_rate = config_.learning_rate});

  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng rng(config_.seed);

  const std::size_t batch = std::max<std::size_t>(1, config_.batch_size);
  // Per-batch residuals and row pointers live in the workspace arena for the
  // whole fit; `filled` tracks how much of the capacity a batch used.
  Workspace::Frame frame;
  double* errs = frame.workspace().alloc<double>(batch);
  const double** xrows = frame.workspace().alloc<const double*>(batch);
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += batch) {
      const std::size_t end = std::min(order.size(), start + batch);
      std::fill(grads.begin(), grads.end(), 0.0);
      // Rates depend only on the batch-start parameters: compute residuals
      // in sample order, then fold them into the gradient.
      std::size_t filled = 0;
      for (std::size_t k = start; k < end; ++k) {
        const auto idx = order[k];
        const auto& x = rows[idx];
        double eta = dot(std::span<const double>(params).first(dim), x) + params[dim];
        eta = std::clamp(eta, -config_.max_linear_predictor, eta_ceiling_);
        const double lambda = std::exp(eta);
        // d/dη (λ − y η) = λ − y
        const double err = lambda - targets[idx];
        errs[filled] = err;
        xrows[filled] = x.data();
        ++filled;
      }
      accumulate_weighted_rows(std::span<const double* const>(xrows, filled),
                               std::span<const double>(errs, filled),
                               std::span<double>(grads).first(dim));
      for (std::size_t i = 0; i < filled; ++i) grads[dim] += errs[i];
      const double inv = 1.0 / static_cast<double>(end - start);
      for (std::size_t c = 0; c < dim; ++c) {
        grads[c] = grads[c] * inv + config_.l2 * params[c];
      }
      grads[dim] *= inv;
      adam.step(params, grads);
    }
  }

  weights_.assign(params.begin(), params.begin() + static_cast<std::ptrdiff_t>(dim));
  bias_ = params[dim];
}

double PoissonRegression::predict_mean(std::span<const double> row) const {
  FORUMCAST_CHECK(fitted());
  FORUMCAST_CHECK(row.size() == weights_.size());
  const double eta =
      std::clamp(dot(weights_, row) + bias_, -config_.max_linear_predictor,
                 eta_ceiling_);
  return std::exp(eta);
}

}  // namespace forumcast::ml
