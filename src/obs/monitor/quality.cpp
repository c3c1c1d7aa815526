#include "obs/monitor/quality.hpp"

#include <algorithm>
#include <cmath>

#include "eval/metrics.hpp"
#include "util/check.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace forumcast::obs::monitor {

ScoreReservoir::ScoreReservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), seed_(seed) {
  FORUMCAST_CHECK_MSG(capacity > 0, "ScoreReservoir capacity must be > 0");
  scores_.reserve(capacity);
  labels_.reserve(capacity);
}

void ScoreReservoir::add(double score, int label) {
  ++seen_;
  if (scores_.size() < capacity_) {
    scores_.push_back(score);
    labels_.push_back(label);
    return;
  }
  // Algorithm R with a per-item derived stream: the replacement index is a
  // pure function of (seed, seen), not of any shared RNG state, so two runs
  // that insert the same sequence agree bit-for-bit.
  std::uint64_t state = seed_ ^ (seen_ * 0x9e3779b97f4a7c15ULL);
  const std::uint64_t j = util::splitmix64(state) % seen_;
  if (j < capacity_) {
    scores_[static_cast<std::size_t>(j)] = score;
    labels_[static_cast<std::size_t>(j)] = label;
  }
}

std::optional<double> ScoreReservoir::auc() const {
  const bool has_positive = std::find(labels_.begin(), labels_.end(), 1) !=
                            labels_.end();
  const bool has_negative = std::find(labels_.begin(), labels_.end(), 0) !=
                            labels_.end();
  if (!has_positive || !has_negative) return std::nullopt;
  return eval::auc(scores_, labels_);
}

std::uint64_t ScoreReservoir::digest() const {
  util::Fnv1a hash;
  hash.u64(seen_);
  hash.f64s(scores_);
  for (const int label : labels_) hash.u64(static_cast<std::uint64_t>(label));
  return hash.value();
}

RollingWindow::RollingWindow(std::size_t capacity) {
  FORUMCAST_CHECK_MSG(capacity > 0, "RollingWindow capacity must be > 0");
  values_.resize(capacity);
}

void RollingWindow::add(double value) {
  if (size_ == values_.size()) {
    sum_ -= values_[head_];
  } else {
    ++size_;
  }
  values_[head_] = value;
  sum_ += value;
  head_ = (head_ + 1) % values_.size();
}

std::optional<double> RollingWindow::mean() const {
  if (size_ == 0) return std::nullopt;
  return sum_ / static_cast<double>(size_);
}

std::optional<double> RollingWindow::root_mean() const {
  const auto m = mean();
  if (!m) return std::nullopt;
  return std::sqrt(std::max(0.0, *m));
}

void CalibrationHistogram::add(double predicted_probability, int label) {
  const double p = std::clamp(predicted_probability, 0.0, 1.0);
  auto decile = static_cast<std::size_t>(p * kDeciles);
  decile = std::min(decile, kDeciles - 1);  // p == 1.0 joins the top decile
  ++counts_[decile];
  predicted_sum_[decile] += p;
  if (label != 0) ++positives_[decile];
  ++total_;
}

std::optional<double> CalibrationHistogram::ece() const {
  if (total_ == 0) return std::nullopt;
  double ece = 0.0;
  for (std::size_t d = 0; d < kDeciles; ++d) {
    if (counts_[d] == 0) continue;
    const auto n = static_cast<double>(counts_[d]);
    const double mean_predicted = predicted_sum_[d] / n;
    const double frac_positive = static_cast<double>(positives_[d]) / n;
    ece += (n / static_cast<double>(total_)) *
           std::abs(mean_predicted - frac_positive);
  }
  return ece;
}

double timing_log_likelihood(double predicted_delay_hours,
                             double realized_delay_hours) {
  const double rate = 1.0 / std::max(predicted_delay_hours, 1e-3);
  return std::log(rate) - rate * std::max(realized_delay_hours, 0.0);
}

}  // namespace forumcast::obs::monitor
