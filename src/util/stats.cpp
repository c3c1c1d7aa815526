#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "util/check.hpp"

namespace forumcast::util {

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  const double total = std::accumulate(values.begin(), values.end(), 0.0);
  return total / static_cast<double>(values.size());
}

double variance(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double mu = mean(values);
  double accum = 0.0;
  for (double v : values) accum += (v - mu) * (v - mu);
  return accum / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) { return std::sqrt(variance(values)); }

double median(std::span<const double> values) {
  FORUMCAST_CHECK(!values.empty());
  return percentile(values, 50.0);
}

double percentile(std::span<const double> values, double p) {
  FORUMCAST_CHECK(!values.empty());
  FORUMCAST_CHECK(p >= 0.0 && p <= 100.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  FORUMCAST_CHECK(xs.size() == ys.size());
  FORUMCAST_CHECK(!xs.empty());
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

namespace {
// Average ranks with ties sharing the mean of their positional ranks.
std::vector<double> average_ranks(std::span<const double> values) {
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(values.size(), 0.0);
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() && values[order[j + 1]] == values[order[i]]) ++j;
    const double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  return ranks;
}
}  // namespace

double spearman(std::span<const double> xs, std::span<const double> ys) {
  FORUMCAST_CHECK(xs.size() == ys.size());
  FORUMCAST_CHECK(!xs.empty());
  const std::vector<double> rx = average_ranks(xs);
  const std::vector<double> ry = average_ranks(ys);
  return pearson(rx, ry);
}

double fraction_at_most(std::span<const double> values, double threshold) {
  if (values.empty()) return 0.0;
  const auto count = std::count_if(values.begin(), values.end(),
                                   [&](double v) { return v <= threshold; });
  return static_cast<double>(count) / static_cast<double>(values.size());
}

void StreamingMedian::add(double value) {
  if (lower_.empty() || value <= lower_.front()) {
    lower_.push_back(value);
    std::push_heap(lower_.begin(), lower_.end());
  } else {
    upper_.push_back(value);
    std::push_heap(upper_.begin(), upper_.end(), std::greater<double>{});
  }
  if (lower_.size() > upper_.size() + 1) {
    std::pop_heap(lower_.begin(), lower_.end());
    upper_.push_back(lower_.back());
    lower_.pop_back();
    std::push_heap(upper_.begin(), upper_.end(), std::greater<double>{});
  } else if (upper_.size() > lower_.size()) {
    std::pop_heap(upper_.begin(), upper_.end(), std::greater<double>{});
    lower_.push_back(upper_.back());
    upper_.pop_back();
    std::push_heap(lower_.begin(), lower_.end());
  }
}

double StreamingMedian::median() const {
  FORUMCAST_CHECK(!lower_.empty());
  if (lower_.size() > upper_.size()) return lower_.front();
  // Even count: identical expression to percentile()'s
  // `sorted[lo] * (1.0 - frac) + sorted[hi] * frac` with frac == 0.5 exactly.
  return lower_.front() * 0.5 + upper_.front() * 0.5;
}

void RunningStats::add(double value) {
  if (count_ == 0) {
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace forumcast::util
