#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "json_parser.hpp"
#include "util/parallel.hpp"

namespace forumcast::obs {
namespace {

// Tests share the process-global registry; prefix names per test so a
// previously-registered metric never leaks state into another expectation.

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Counter, ConcurrentAddsSumExactly) {
  Counter counter;
  const std::size_t n = 100000;
  util::parallel_for(n, [&](std::size_t) { counter.add(); }, 8);
  EXPECT_EQ(counter.value(), n);
}

TEST(Gauge, LastWriteWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(3.5);
  gauge.set(-1.25);
  EXPECT_EQ(gauge.value(), -1.25);
}

TEST(HistogramTest, BucketBoundariesAreUpperInclusive) {
  Histogram histogram({1.0, 10.0, 100.0});
  // Prometheus `le` semantics: value 1.0 lands in the first bucket,
  // 1.0000001 in the second, 100.0 still in the third, 100.1 in +inf.
  histogram.observe(1.0);
  histogram.observe(1.0000001);
  histogram.observe(100.0);
  histogram.observe(100.1);
  const auto snapshot = histogram.snapshot();
  ASSERT_EQ(snapshot.counts.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(snapshot.counts[0], 1u);
  EXPECT_EQ(snapshot.counts[1], 1u);
  EXPECT_EQ(snapshot.counts[2], 1u);
  EXPECT_EQ(snapshot.counts[3], 1u);
  EXPECT_EQ(snapshot.total_count, 4u);
  EXPECT_NEAR(snapshot.sum, 1.0 + 1.0000001 + 100.0 + 100.1, 1e-9);
}

TEST(HistogramTest, ValuesBelowFirstBoundLandInFirstBucket) {
  Histogram histogram({5.0, 50.0});
  histogram.observe(-100.0);
  histogram.observe(0.0);
  const auto snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.total_count, 2u);
}

TEST(HistogramTest, ConcurrentObservesMergeAcrossShards) {
  Histogram histogram({10.0, 20.0, 30.0});
  const std::size_t per_thread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&histogram, per_thread] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        histogram.observe(static_cast<double>(i % 40));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.total_count, 8u * per_thread);
  std::uint64_t bucket_sum = 0;
  for (const auto count : snapshot.counts) bucket_sum += count;
  EXPECT_EQ(bucket_sum, snapshot.total_count);
}

TEST(MetricsRegistryTest, SameNameReturnsSameMetric) {
  auto& registry = MetricsRegistry::global();
  Counter& a = registry.counter("test.registry.same_name");
  Counter& b = registry.counter("test.registry.same_name");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.histogram("test.registry.histogram", {1.0, 2.0});
  // Bounds are consulted only on first registration.
  Histogram& h2 = registry.histogram("test.registry.histogram", {9.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndUseUnderParallelFor) {
  auto& registry = MetricsRegistry::global();
  registry.counter("test.registry.concurrent").reset();
  const std::size_t n = 50000;
  util::parallel_for(
      n,
      [&](std::size_t) { registry.counter("test.registry.concurrent").add(); },
      8);
  EXPECT_EQ(registry.counter("test.registry.concurrent").value(), n);
}

TEST(MetricsRegistryTest, SnapshotJsonContainsRegisteredMetrics) {
  auto& registry = MetricsRegistry::global();
  registry.counter("test.json.counter").reset();
  registry.counter("test.json.counter").add(7);
  registry.gauge("test.json.gauge").set(2.5);
  registry.histogram("test.json.histogram", {1.0}).observe(0.5);
  const std::string json = registry.snapshot().to_json();
  EXPECT_NE(json.find("\"test.json.counter\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json.gauge\":2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json.histogram\""), std::string::npos) << json;
}

TEST(MetricsRegistryTest, JsonExportKeepsHostileMetricNamesIntact) {
  MetricsRegistry registry;
  // Hostile names (quote, backslash, newline) must not be able to forge
  // extra keys or break the framing: they stay single escaped JSON strings.
  const std::string hostile_counter = "evil name\"} 99\ninjected_metric 1";
  const std::string hostile_gauge = "back\\slash gauge";
  registry.counter(hostile_counter).add(3);
  registry.gauge(hostile_gauge).set(2.0);
  // Dotted names used across this codebase survive verbatim.
  registry.counter("dotted.name.ok").add(1);
  const std::string json = registry.snapshot().to_json();

  std::shared_ptr<JsonValue> root;
  ASSERT_NO_THROW(root = JsonParser(json).parse()) << json;
  const auto& counters = as_object(as_object(root).at("counters"));
  ASSERT_TRUE(counters.contains(hostile_counter)) << json;
  EXPECT_EQ(as_number(counters.at(hostile_counter)), 3.0);
  EXPECT_FALSE(counters.contains("injected_metric 1")) << json;
  const auto& gauges = as_object(as_object(root).at("gauges"));
  ASSERT_TRUE(gauges.contains(hostile_gauge)) << json;
  EXPECT_EQ(as_number(gauges.at(hostile_gauge)), 2.0);
  ASSERT_TRUE(counters.contains("dotted.name.ok")) << json;
  EXPECT_EQ(as_number(counters.at("dotted.name.ok")), 1.0);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  Histogram histogram({10.0, 20.0, 40.0});
  // 10 observations in (10, 20]: ranks 1..10 all land in the second bucket.
  for (int i = 0; i < 10; ++i) histogram.observe(15.0);
  const auto snapshot = histogram.snapshot();
  // Median rank = 5 of 10 -> halfway through the (10, 20] bucket.
  EXPECT_NEAR(snapshot.quantile(0.5), 15.0, 1e-9);
  EXPECT_NEAR(snapshot.quantile(1.0), 20.0, 1e-9);
  // Convenience form on the live histogram agrees.
  EXPECT_NEAR(histogram.quantile(0.5), 15.0, 1e-9);
}

TEST(HistogramTest, QuantileSpansMultipleBuckets) {
  Histogram histogram({1.0, 2.0, 4.0});
  // 2 in first bucket, 6 in second, 2 in third => p50 rank 5 is the 3rd of
  // 6 observations inside (1, 2]: 1 + (5-2)/6 * 1 = 1.5.
  histogram.observe(0.5);
  histogram.observe(0.5);
  for (int i = 0; i < 6; ++i) histogram.observe(1.5);
  histogram.observe(3.0);
  histogram.observe(3.0);
  EXPECT_NEAR(histogram.quantile(0.5), 1.5, 1e-9);
  // p90 rank = 9 -> 1st of 2 in (2, 4]: 2 + (9-8)/2 * 2 = 3.
  EXPECT_NEAR(histogram.quantile(0.9), 3.0, 1e-9);
}

TEST(HistogramTest, QuantileFirstBucketInterpolatesFromZero) {
  Histogram histogram({8.0, 16.0});
  for (int i = 0; i < 4; ++i) histogram.observe(1.0);
  // All mass in the first bucket: p50 = 0 + (2/4) * 8 = 4 (Prometheus
  // convention, not the empirical median).
  EXPECT_NEAR(histogram.quantile(0.5), 4.0, 1e-9);
}

TEST(HistogramTest, QuantileClampsOverflowToLastFiniteBound) {
  Histogram histogram({1.0, 5.0});
  histogram.observe(100.0);
  histogram.observe(200.0);
  EXPECT_NEAR(histogram.quantile(0.5), 5.0, 1e-9);
  EXPECT_NEAR(histogram.quantile(0.99), 5.0, 1e-9);
}

TEST(HistogramTest, QuantileOfEmptyHistogramIsZero) {
  Histogram histogram({1.0, 2.0});
  EXPECT_EQ(histogram.quantile(0.5), 0.0);
}

TEST(MetricsRegistryTest, SnapshotCarriesProcessSelfMetrics) {
  MetricsRegistry registry;  // fresh registry: self-metrics are pre-registered
  const auto snap = registry.snapshot();
  double uptime = -1.0, rss = -1.0;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "process.uptime_seconds") uptime = value;
    if (name == "process.max_rss_bytes") rss = value;
  }
  EXPECT_GE(uptime, 0.0);
  // Any live process has touched more than a page of memory.
  EXPECT_GT(rss, 4096.0);
  // Refreshed at snapshot time: uptime is monotone across snapshots.
  const auto later = registry.snapshot();
  for (const auto& [name, value] : later.gauges) {
    if (name == "process.uptime_seconds") {
      EXPECT_GE(value, uptime);
    }
  }
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  auto& registry = MetricsRegistry::global();
  registry.counter("test.reset.counter").add(5);
  registry.gauge("test.reset.gauge").set(1.0);
  registry.reset();
  EXPECT_EQ(registry.counter("test.reset.counter").value(), 0u);
  EXPECT_EQ(registry.gauge("test.reset.gauge").value(), 0.0);
}

}  // namespace
}  // namespace forumcast::obs
