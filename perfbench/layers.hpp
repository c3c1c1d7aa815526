// Per-layer measurement for the traced run: registry windows, span self
// times, and replays of a workload's recorded requests straight into each
// layer's public functions.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stack.hpp"

namespace perfbench {

/// Difference of two registry snapshots: what happened between `begin` and
/// `end`. A reading whose source is absent (no such counter, gauge or
/// histogram, or a histogram that observed nothing) is NaN, which the driver
/// reports as a missing source rather than as 0. Every histogram read is
/// also checked: one that observed values but sums to exactly 0 was fed an
/// untraced span timer, so its name is recorded in `broken`.
class RegistryWindow {
 public:
  RegistryWindow(forumcast::obs::MetricsRegistry::Snapshot begin,
                 forumcast::obs::MetricsRegistry::Snapshot end);

  double counter(const std::string& name) const;
  double gauge(const std::string& name) const;  ///< value at the end
  double hist_mean(const std::string& name);
  double hist_quantile(const std::string& name, double q);
  double hist_count(const std::string& name) const;

  std::vector<std::string> broken;  ///< histograms with count > 0, sum == 0

 private:
  forumcast::obs::Histogram::Snapshot hist(const std::string& name);

  forumcast::obs::MetricsRegistry::Snapshot begin_;
  forumcast::obs::MetricsRegistry::Snapshot end_;
};

/// Self time per layer (ms): each span's duration minus the part its
/// direct child spans cover, summed by the src/ module its name belongs to.
/// The benchmark's own spans (replays, recover/snapshot wrappers) are left
/// out; the library spans they enclose count. A layer without spans is
/// absent from the map.
std::map<std::string, double> layer_self_ms(
    const std::vector<forumcast::obs::TraceEvent>& events);

/// The layers self times are reported for, in output order.
const std::vector<std::string>& reported_layers();

/// Replays `requests` into the serving layers of `stack` (state must be
/// quiescent: no ingest running) and returns the per-layer timings.
struct ReplayTimings {
  std::vector<double> score_ms;           ///< BatchScorer::score per request
  std::vector<double> question_block_ms;  ///< FeatureCache::question_block misses
  double assemble_us_per_row = 0.0;
  double fwd_answer_us_per_row = 0.0;
  double fwd_vote_us_per_row = 0.0;
  double fwd_timing_us_per_row = 0.0;
  std::vector<double> recommend_ms;  ///< Recommender::recommend on scored rows
  std::vector<double> codec_us;      ///< request + response frame round trip
};
ReplayTimings replay_layers(Stack& stack, const std::vector<PlannedRequest>& plan,
                            const std::vector<std::uint32_t>& indices);

/// Per-request times of a net::MicroBatcher replay.
struct BatcherReplay {
  std::vector<double> queue_ms;    ///< try_submit -> its group starts
  std::vector<double> service_ms;  ///< group start -> response frame handed back
  std::size_t failed = 0;          ///< refused, or answered with an error frame
};
/// Submits `indices` of `plan` (in that order) to a fresh MicroBatcher
/// configured like the server's, over the serving scorer and the LiveState
/// read guard. in_flight == 0 replays open loop at the recorded due offsets;
/// otherwise each completion submits the next request, keeping `in_flight`
/// outstanding. A group starts when the batcher takes the read guard for it
/// (score_group and handle_route both do so first).
BatcherReplay replay_batcher(Stack& stack, const std::vector<PlannedRequest>& plan,
                             const std::vector<std::uint32_t>& indices,
                             std::size_t in_flight);

/// Writes the collector's spans plus the load generator's client spans
/// (one per request, id = plan index) as one Chrome trace.
void write_chrome_trace(const std::string& path,
                        const std::vector<RequestResult>& client_spans);

}  // namespace perfbench
