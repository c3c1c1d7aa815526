#include "ml/logistic_regression.hpp"

#include <cmath>
#include <numeric>

#include "ml/activations.hpp"
#include "ml/adam.hpp"
#include "ml/matrix.hpp"
#include "ml/workspace.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::ml {

LogisticRegression::LogisticRegression(LogisticRegressionConfig config)
    : config_(config) {}

LogisticRegression LogisticRegression::from_parameters(
    std::vector<double> weights, double bias, LogisticRegressionConfig config) {
  FORUMCAST_CHECK(!weights.empty());
  LogisticRegression model(config);
  model.weights_ = std::move(weights);
  model.bias_ = bias;
  return model;
}

void LogisticRegression::fit(std::span<const std::vector<double>> rows,
                             std::span<const int> labels) {
  FORUMCAST_CHECK(!rows.empty());
  FORUMCAST_CHECK(rows.size() == labels.size());
  const std::size_t dim = rows.front().size();
  for (const auto& row : rows) FORUMCAST_CHECK(row.size() == dim);
  for (int label : labels) FORUMCAST_CHECK(label == 0 || label == 1);

  weights_.assign(dim, 0.0);
  bias_ = 0.0;

  // Parameters packed as [weights..., bias] for one Adam instance.
  std::vector<double> params(dim + 1, 0.0);
  std::vector<double> grads(dim + 1, 0.0);
  Adam adam(dim + 1, {.learning_rate = config_.learning_rate,
                      .weight_decay = 0.0});

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
    FORUMCAST_SPAN("ml.logreg.epoch");
    rng.shuffle(order);
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < order.size(); start += batch) {
      const std::size_t end = std::min(order.size(), start + batch);
      std::fill(grads.begin(), grads.end(), 0.0);
      // Margins and residuals depend only on the batch-start parameters:
      // compute them in sample order, then fold them into the gradient.
      std::size_t filled = 0;
      for (std::size_t k = start; k < end; ++k) {
        const auto idx = order[k];
        const auto& x = rows[idx];
        const double margin =
            dot(std::span<const double>(params).first(dim), x) + params[dim];
        const double p = sigmoid(margin);
        const double err = p - static_cast<double>(labels[idx]);
        // Brier score: two flops per sample, unlike log-loss, and monotone
        // enough to watch training converge.
        epoch_loss += err * err;
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
      grads[dim] *= inv;  // no regularization on the bias
      adam.step(params, grads);
    }
    FORUMCAST_GAUGE_SET("ml.logreg.train_loss",
                        epoch_loss / static_cast<double>(rows.size()));
  }

  weights_.assign(params.begin(), params.begin() + static_cast<std::ptrdiff_t>(dim));
  bias_ = params[dim];
}

double LogisticRegression::predict_probability(std::span<const double> row) const {
  FORUMCAST_CHECK(fitted());
  FORUMCAST_CHECK(row.size() == weights_.size());
  return sigmoid(dot(weights_, row) + bias_);
}

double LogisticRegression::log_loss(std::span<const std::vector<double>> rows,
                                    std::span<const int> labels) const {
  FORUMCAST_CHECK(rows.size() == labels.size());
  FORUMCAST_CHECK(!rows.empty());
  double total = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double p = predict_probability(rows[i]);
    const double clipped = std::min(1.0 - 1e-12, std::max(1e-12, p));
    total += labels[i] == 1 ? -std::log(clipped) : -std::log(1.0 - clipped);
  }
  return total / static_cast<double>(rows.size());
}

}  // namespace forumcast::ml
