#include "eval/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/check.hpp"

namespace forumcast::eval {

double auc(std::span<const double> scores, std::span<const int> labels) {
  FORUMCAST_CHECK(scores.size() == labels.size());
  FORUMCAST_CHECK(!scores.empty());
  std::size_t positives = 0;
  for (int label : labels) {
    FORUMCAST_CHECK(label == 0 || label == 1);
    positives += static_cast<std::size_t>(label);
  }
  const std::size_t negatives = labels.size() - positives;
  FORUMCAST_CHECK_MSG(positives > 0 && negatives > 0,
                      "AUC needs both classes present");

  // Average ranks (ties share the mean rank), then the Mann–Whitney statistic.
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });
  double positive_rank_sum = 0.0;
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double avg_rank =
        (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) {
      if (labels[order[k]] == 1) positive_rank_sum += avg_rank;
    }
    i = j + 1;
  }
  const double np = static_cast<double>(positives);
  const double nn = static_cast<double>(negatives);
  return (positive_rank_sum - np * (np + 1.0) / 2.0) / (np * nn);
}

double rmse(std::span<const double> predictions, std::span<const double> targets) {
  FORUMCAST_CHECK(predictions.size() == targets.size());
  FORUMCAST_CHECK(!predictions.empty());
  double accum = 0.0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const double diff = predictions[i] - targets[i];
    accum += diff * diff;
  }
  return std::sqrt(accum / static_cast<double>(predictions.size()));
}

double improvement_percent(double baseline, double ours, bool higher_is_better) {
  FORUMCAST_CHECK(baseline != 0.0);
  const double delta = higher_is_better ? ours - baseline : baseline - ours;
  return 100.0 * delta / std::abs(baseline);
}

}  // namespace forumcast::eval
