// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms with lock-free hot paths.
//
// Design goals, in order: (1) an increment on a hot path is one relaxed
// atomic RMW — cheap enough to leave compiled in everywhere; (2) snapshots
// are consistent enough for dashboards (each metric is read atomically, the
// set is not a global cut); (3) references returned by the registry are
// stable for the process lifetime, so call sites cache them in a
// function-local static and never touch the name map again.
//
// Histograms shard their buckets by thread (a fixed pool of shards indexed
// by a hash of the caller's thread id), so concurrent observes on different
// threads touch different cache lines; shards are merged on snapshot().
// Bucket semantics follow the Prometheus `le` convention: bucket i counts
// values v with bounds[i-1] < v <= bounds[i] (lower-exclusive,
// upper-INCLUSIVE), plus an implicit +inf overflow bucket.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace forumcast::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty; an implicit
  /// +inf bucket is appended for values above the last bound.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value) noexcept;

  struct Snapshot {
    std::vector<double> upper_bounds;    ///< finite bounds, as configured
    std::vector<std::uint64_t> counts;   ///< upper_bounds.size() + 1 entries
    std::uint64_t total_count = 0;
    double sum = 0.0;

    /// Prometheus-style histogram_quantile: find the bucket holding the
    /// q-th observation (q in [0, 1]) and interpolate linearly inside it.
    /// The first bucket interpolates from 0 when its bound is positive
    /// (the Prometheus convention for latency-shaped data); a rank landing
    /// in the +inf overflow bucket is clamped to the last finite bound.
    /// Returns 0 for an empty histogram.
    double quantile(double q) const;
  };
  Snapshot snapshot() const;

  /// Convenience: snapshot().quantile(q) — merges the shards, so prefer the
  /// Snapshot form when reading several quantiles of one histogram.
  double quantile(double q) const { return snapshot().quantile(q); }

  const std::vector<double>& upper_bounds() const { return bounds_; }
  void reset() noexcept;

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::array<Shard, kShards> shards_;
};

/// Named metrics, created on first use and immortal thereafter. Thread-safe.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  /// Pre-registers the process self-metrics (`process.uptime_seconds`,
  /// `process.max_rss_bytes`) so every snapshot carries them.
  MetricsRegistry();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `upper_bounds` is consulted only when `name` is first registered.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;

    std::string to_json() const;
  };
  /// Also refreshes the process self-metrics (`process.uptime_seconds`,
  /// `process.max_rss_bytes` via getrusage) so every snapshot is
  /// self-contained for dashboards.
  Snapshot snapshot() const;

  /// Zeroes every registered metric (registrations survive). Test/bench use.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace forumcast::obs
