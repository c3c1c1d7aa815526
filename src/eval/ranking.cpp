#include "eval/ranking.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/check.hpp"

namespace forumcast::eval {

namespace {
std::vector<std::size_t> ranking_order(std::span<const double> scores,
                                       std::span<const int> labels) {
  FORUMCAST_CHECK(scores.size() == labels.size());
  FORUMCAST_CHECK(!scores.empty());
  for (int label : labels) FORUMCAST_CHECK(label == 0 || label == 1);
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });
  return order;
}
}  // namespace

double precision_at_k(std::span<const double> scores,
                      std::span<const int> labels, std::size_t k) {
  FORUMCAST_CHECK(k >= 1);
  const auto order = ranking_order(scores, labels);
  const std::size_t depth = std::min(k, order.size());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < depth; ++i) hits += labels[order[i]];
  return static_cast<double>(hits) / static_cast<double>(depth);
}

double reciprocal_rank(std::span<const double> scores,
                       std::span<const int> labels) {
  const auto order = ranking_order(scores, labels);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (labels[order[i]] == 1) return 1.0 / static_cast<double>(i + 1);
  }
  return 0.0;
}

double ndcg_at_k(std::span<const double> scores, std::span<const int> labels,
                 std::size_t k) {
  FORUMCAST_CHECK(k >= 1);
  const auto order = ranking_order(scores, labels);
  const std::size_t depth = std::min(k, order.size());
  double dcg = 0.0;
  for (std::size_t i = 0; i < depth; ++i) {
    if (labels[order[i]] == 1) dcg += 1.0 / std::log2(static_cast<double>(i) + 2.0);
  }
  const std::size_t relevant = static_cast<std::size_t>(
      std::count(labels.begin(), labels.end(), 1));
  if (relevant == 0) return 0.0;
  double ideal = 0.0;
  for (std::size_t i = 0; i < std::min(relevant, depth); ++i) {
    ideal += 1.0 / std::log2(static_cast<double>(i) + 2.0);
  }
  return dcg / ideal;
}

}  // namespace forumcast::eval
