// Rolling model-quality estimators fed by the label-join.
//
// All three are plain bounded-memory accumulators with no dependency on the
// obs macro layer, so they work (and are unit-tested) in FORUMCAST_OBS=OFF
// builds too — only the QualityMonitor glue above them compiles away.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace forumcast::obs::monitor {

/// Uniform reservoir (Algorithm R) of (score, label) pairs with a streaming
/// AUC readout over the sample. Replacement decisions are a pure function of
/// (seed, number of items seen), so the reservoir contents — and the AUC —
/// are bit-deterministic for a given insertion order no matter how many
/// threads fed the serving path upstream (the monitor serializes inserts).
class ScoreReservoir {
 public:
  ScoreReservoir(std::size_t capacity, std::uint64_t seed);

  void add(double score, int label);

  /// Tie-aware rank-statistic AUC over the reservoir sample; nullopt until
  /// both classes are present.
  std::optional<double> auc() const;

  std::size_t size() const { return scores_.size(); }
  std::uint64_t seen() const { return seen_; }

  /// FNV-1a over the sample bits, for the determinism regression test.
  std::uint64_t digest() const;

 private:
  std::size_t capacity_;
  std::uint64_t seed_;
  std::uint64_t seen_ = 0;
  std::vector<double> scores_;
  std::vector<int> labels_;
};

/// Fixed-size ring of samples with mean / RMSE readouts: the rolling window
/// behind vote RMSE (feed squared errors) and timing log-likelihood (feed
/// per-outcome log-likelihoods).
class RollingWindow {
 public:
  explicit RollingWindow(std::size_t capacity);

  void add(double value);
  std::size_t size() const { return size_; }
  std::optional<double> mean() const;
  /// sqrt(mean) — RMSE when the window holds squared errors.
  std::optional<double> root_mean() const;

 private:
  std::vector<double> values_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  double sum_ = 0.0;
};

/// Decile calibration histogram of predicted answer probability against
/// realized outcomes, with an expected-calibration-error readout:
/// ECE = Σ_b (n_b / N) · |mean predicted_b − frac positive_b|.
class CalibrationHistogram {
 public:
  static constexpr std::size_t kDeciles = 10;

  void add(double predicted_probability, int label);

  std::optional<double> ece() const;
  std::uint64_t count(std::size_t decile) const { return counts_[decile]; }
  std::uint64_t total() const { return total_; }

 private:
  std::array<std::uint64_t, kDeciles> counts_{};
  std::array<std::uint64_t, kDeciles> positives_{};
  std::array<double, kDeciles> predicted_sum_{};
  std::uint64_t total_ = 0;
};

/// Log-likelihood of a realized first-answer delay under the model's
/// predicted delay, scoring the timing model as an exponential with rate
/// λ = 1 / max(r̂, ε):  ll = log λ − λ·d. Higher is better; a model whose
/// predicted delays drift away from realized ones sinks this steadily.
double timing_log_likelihood(double predicted_delay_hours,
                             double realized_delay_hours);

}  // namespace forumcast::obs::monitor
