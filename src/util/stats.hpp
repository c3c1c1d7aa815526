// Summary statistics used across descriptive analytics and evaluation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace forumcast::util {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> values);

/// Population variance; 0 for spans with fewer than two elements.
double variance(std::span<const double> values);

/// Population standard deviation.
double stddev(std::span<const double> values);

/// Median (average of middle two for even sizes). Requires non-empty input.
double median(std::span<const double> values);

/// Linear-interpolated percentile, p in [0, 100]. Requires non-empty input.
double percentile(std::span<const double> values, double p);

/// Pearson correlation coefficient; 0 when either side is constant.
/// Requires both spans be the same non-zero length.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Spearman rank correlation (Pearson over average ranks, tie-aware).
double spearman(std::span<const double> xs, std::span<const double> ys);

/// Fraction of `values` less than or equal to `threshold`.
double fraction_at_most(std::span<const double> values, double threshold);

/// Exact streaming median over an insert-only stream (two balanced heaps).
///
/// median() reproduces util::median — i.e. percentile(values, 50) — bit for
/// bit on the same multiset: the interpolation there reduces to the lower
/// middle element for odd counts and `lo * 0.5 + hi * 0.5` for even counts,
/// which is exactly the expression evaluated here. The streaming layer relies
/// on that equality to keep incrementally-maintained medians identical to a
/// batch rebuild.
class StreamingMedian {
 public:
  void add(double value);
  std::size_t count() const { return lower_.size() + upper_.size(); }
  /// Requires count() > 0.
  double median() const;

 private:
  // lower_ is a max-heap over the smaller half (holds the extra element when
  // the count is odd); upper_ is a min-heap over the larger half.
  std::vector<double> lower_;
  std::vector<double> upper_;
};

/// Streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double value);
  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace forumcast::util
