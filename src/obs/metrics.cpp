#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/json.hpp"

namespace forumcast::obs {

namespace {

std::size_t thread_shard_index() {
  // Hash of the thread id, computed once per thread. Distinct threads land
  // on distinct shards with high probability, which is all the sharding
  // needs (a collision is a correctness no-op, just extra contention).
  static thread_local const std::size_t index =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return index;
}

std::chrono::steady_clock::time_point process_epoch() {
  // Pinned the first time any registry is constructed — for the global
  // registry that is effectively process start, which is what dashboards
  // want from an uptime gauge.
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

double process_uptime_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       process_epoch())
      .count();
}

double process_max_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<double>(usage.ru_maxrss);  // bytes on Darwin
#else
    return static_cast<double>(usage.ru_maxrss) * 1024.0;  // KiB on Linux
#endif
  }
#endif
  return 0.0;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram needs at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("Histogram bounds must be strictly increasing");
  }
  for (Shard& shard : shards_) {
    shard.counts = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::observe(double value) noexcept {
  Shard& shard = shards_[thread_shard_index() % kShards];
  // First bound >= value — the `le` bucket; values past the last bound land
  // in the +inf overflow slot.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.upper_bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (std::size_t b = 0; b < shard.counts.size(); ++b) {
      snap.counts[b] += shard.counts[b].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (std::uint64_t c : snap.counts) snap.total_count += c;
  return snap;
}

double Histogram::Snapshot::quantile(double q) const {
  if (total_count == 0 || upper_bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total_count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    cumulative += counts[b];
    if (static_cast<double>(cumulative) < rank) continue;
    // Rank lands in bucket b. The overflow bucket has no finite upper edge,
    // so the best honest answer is the last finite bound (Prometheus
    // histogram_quantile does the same clamp).
    if (b >= upper_bounds.size()) return upper_bounds.back();
    const double upper = upper_bounds[b];
    // Prometheus convention: the first bucket interpolates from 0 when its
    // bound is positive (latency-shaped data); a non-positive first bound
    // has no usable lower edge, so return the bound itself.
    double lower;
    if (b == 0) {
      if (upper <= 0.0) return upper;
      lower = 0.0;
    } else {
      lower = upper_bounds[b - 1];
    }
    const std::uint64_t below = cumulative - counts[b];
    double fraction =
        counts[b] > 0
            ? (rank - static_cast<double>(below)) / static_cast<double>(counts[b])
            : 1.0;
    fraction = std::clamp(fraction, 0.0, 1.0);
    return lower + (upper - lower) * fraction;
  }
  return upper_bounds.back();
}

void Histogram::reset() noexcept {
  for (Shard& shard : shards_) {
    for (auto& count : shard.counts) count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // immortal
  return *registry;
}

MetricsRegistry::MetricsRegistry() {
  process_epoch();  // pin the uptime epoch at construction
  gauges_["process.uptime_seconds"] = std::make_unique<Gauge>();
  gauges_["process.max_rss_bytes"] = std::make_unique<Gauge>();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  // Refresh the process self-metrics first so every snapshot is
  // self-contained; the syscall happens outside the registry lock.
  const double uptime = process_uptime_seconds();
  const double max_rss = process_max_rss_bytes();

  Snapshot snap;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = gauges_.find("process.uptime_seconds"); it != gauges_.end()) {
    it->second->set(uptime);
  }
  if (auto it = gauges_.find("process.max_rss_bytes"); it != gauges_.end()) {
    it->second->set(max_rss);
  }
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace_back(name, histogram->snapshot());
  }
  return snap;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

std::string MetricsRegistry::Snapshot::to_json() const {
  using detail::append_json_escaped;
  using detail::append_json_number;
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    append_json_escaped(out, name);
    out.push_back(':');
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    append_json_escaped(out, name);
    out.push_back(':');
    append_json_number(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    append_json_escaped(out, name);
    out += ":{\"upper_bounds\":[";
    for (std::size_t i = 0; i < hist.upper_bounds.size(); ++i) {
      if (i > 0) out.push_back(',');
      append_json_number(out, hist.upper_bounds[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < hist.counts.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += std::to_string(hist.counts[i]);
    }
    out += "],\"count\":" + std::to_string(hist.total_count) + ",\"sum\":";
    append_json_number(out, hist.sum);
    out.push_back('}');
  }
  out += "}}";
  return out;
}

}  // namespace forumcast::obs
