#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::util {
namespace {

TEST(Stats, MeanBasics) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, VarianceAndStddev) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(variance(v), 4.0, 1e-12);
  EXPECT_NEAR(stddev(v), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{1.0}), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_THROW(median(std::vector<double>{}), CheckError);
}

TEST(Stats, PercentileInterpolation) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 20.0);
  EXPECT_THROW(percentile(v, 101.0), CheckError);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> neg = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantInputIsZero) {
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<double> y = {2.0, 5.0, 9.0};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Stats, PearsonIndependentNearZero) {
  Rng rng(3);
  std::vector<double> x(20000), y(20000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.03);
}

TEST(Stats, SpearmanMonotoneNonlinear) {
  std::vector<double> x, y;
  for (int i = 1; i <= 50; ++i) {
    x.push_back(i);
    y.push_back(std::exp(0.1 * i));  // monotone but nonlinear
  }
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Stats, SpearmanHandlesTies) {
  const std::vector<double> x = {1.0, 2.0, 2.0, 3.0};
  const std::vector<double> y = {10.0, 20.0, 20.0, 30.0};
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Stats, FractionAtMost) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(fraction_at_most(v, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(fraction_at_most(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(fraction_at_most(v, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(fraction_at_most(std::vector<double>{}, 1.0), 0.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(7);
  RunningStats running;
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    running.add(v);
    values.push_back(v);
  }
  EXPECT_EQ(running.count(), values.size());
  EXPECT_NEAR(running.mean(), mean(values), 1e-9);
  // RunningStats uses the sample variance (n−1); batch uses population (n).
  const double n = static_cast<double>(values.size());
  EXPECT_NEAR(running.variance(), variance(values) * n / (n - 1.0), 1e-9);
  EXPECT_LE(running.min(), running.mean());
  EXPECT_GE(running.max(), running.mean());
}

TEST(Stats, StreamingMedianMatchesBatchMedianBitwise) {
  // The streaming layer relies on StreamingMedian reproducing util::median
  // bit-for-bit over the same multiset — exact equality, no tolerance.
  Rng rng(405);
  for (int trial = 0; trial < 20; ++trial) {
    StreamingMedian sketch;
    std::vector<double> values;
    const std::size_t n = 1 + rng.uniform_index(200);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix of duplicates, negatives, and awkward magnitudes.
      const double v = rng.uniform_index(4) == 0
                           ? static_cast<double>(rng.uniform_int(-3, 3))
                           : rng.normal(0.0, 1e3);
      values.push_back(v);
      sketch.add(v);
      EXPECT_EQ(sketch.count(), values.size());
      EXPECT_EQ(sketch.median(), median(values))
          << "trial " << trial << " after " << values.size() << " samples";
    }
  }
}

TEST(Stats, StreamingMedianEmptyThrows) {
  StreamingMedian sketch;
  EXPECT_THROW(sketch.median(), CheckError);
  sketch.add(7.5);
  EXPECT_DOUBLE_EQ(sketch.median(), 7.5);
}

TEST(Stats, RunningStatsFewSamples) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

}  // namespace
}  // namespace forumcast::util
