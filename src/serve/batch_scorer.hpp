// Batched scoring engine: one question × N candidate users in one pass.
//
// The per-pair reference path (ForecastPipeline::predict) rebuilds x_{u,q}
// from scratch and runs each predictor's batch entry on a batch of one.
// BatchScorer instead assembles the N × (18 + 2K) feature matrix from a
// FeatureCache and pushes whole row blocks through the same batch entries —
// the MLP forwards become blocked GEMMs (ml::gemm_nt) — one block after
// another on the calling thread. Scores are bit-identical to the per-pair
// path; it is purely an execution-layout change.
//
// Thread safety: concurrent score() calls are safe and run side by side;
// serving parallelism comes from the callers (net::MicroBatcher runs one
// worker per core), never from inside one call. One short mutex section
// snapshots the served model, the cache's immutable user table and the
// question block; row assembly and the three forwards then run with no lock
// held. A missing question block is built outside the lock too and
// published only if no swap or invalidation landed during the build
// (otherwise the call starts over). The only contract (shared with
// ForecastPipeline::predict) is that fit() must not run concurrently with
// score().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/pipeline.hpp"
#include "serve/feature_cache.hpp"

namespace forumcast::obs::monitor {
class QualityMonitor;
}  // namespace forumcast::obs::monitor

namespace forumcast::serve {

struct BatchScorerConfig {
  /// Rows per assembled feature block: the GEMM tile height. Sized so a
  /// block's activations stay cache resident (256 × 34 doubles ≈ 68 KB).
  std::size_t block_rows = 256;
  /// Question blocks kept warm in the FeatureCache.
  std::size_t max_cached_questions = 64;
};

class BatchScorer {
 public:
  /// The pipeline must be fitted and outlive the scorer. Refitting the
  /// pipeline is detected via its generation counter and invalidates the
  /// cache on the next score() call.
  explicit BatchScorer(const core::ForecastPipeline& pipeline,
                       BatchScorerConfig config = {});

  /// Owning form: the scorer shares the pipeline's lifetime, which is what
  /// hot swapping needs (the outgoing model must stay alive until every
  /// in-flight score() drops its snapshot).
  explicit BatchScorer(std::shared_ptr<const core::ForecastPipeline> pipeline,
                       BatchScorerConfig config = {});

  /// Scores question `question` against every user in `users`, returning one
  /// Prediction per user in order. Equals pipeline.predict(u, question) for
  /// each u.
  std::vector<core::Prediction> score(
      forum::QuestionId question, std::span<const forum::UserId> users) const;

  /// Adapter for consumers taking a core::BatchPredictFn (Recommender,
  /// RoutingSimulator). The returned callable references *this.
  core::BatchPredictFn predict_fn() const;

  /// Fine-grained invalidation from the streaming layer: drops exactly the
  /// cached state a batch of live events made stale (see
  /// FeatureCache::invalidate) under the scorer lock, instead of waiting
  /// for a generation bump to drop everything. In-flight score() calls
  /// finish on the table and block they snapshotted.
  void invalidate(const CacheInvalidation& invalidation);

  /// Atomic hot swap: replaces the served model with `next` (fitted, e.g. a
  /// freshly loaded bundle) under the scorer lock and bumps the swap epoch.
  /// The next score() sees a changed cache token and drops every cached
  /// block, exactly as a refit generation bump does; in-flight score()
  /// calls that snapshotted the old model before the swap finish on it
  /// (their pinned table and block belong to it), and one building a
  /// question block detects the epoch change and starts over.
  void swap_model(std::shared_ptr<const core::ForecastPipeline> next);

  /// Bumped by every swap_model(). Starts at 0.
  std::uint64_t swap_epoch() const;

  /// The currently served model.
  std::shared_ptr<const core::ForecastPipeline> pipeline() const;

  /// Attaches the model-quality monitor: every score() call is ledgered
  /// (question, users, predictions, serving sync token) and its wall time
  /// observed, and swap_model() hands the monitor the incoming model's
  /// fit-time feature baseline. Install before serving starts (same
  /// discipline as attach()/detach() on LiveState); nullptr detaches.
  void set_monitor(obs::monitor::QualityMonitor* monitor);

  FeatureCacheStats cache_stats() const;
  const BatchScorerConfig& config() const { return config_; }

 private:
  /// Cache sync token: swap epoch in the high half, fit generation in the
  /// low half, so both a refit and a hot swap (which may carry the same
  /// generation) invalidate every cached block.
  static std::uint64_t sync_token(std::uint64_t epoch, std::uint64_t generation) {
    return (epoch << 32) | (generation & 0xffffffffu);
  }

  std::shared_ptr<const core::ForecastPipeline> pipeline_;
  BatchScorerConfig config_;
  mutable std::mutex mutex_;
  mutable FeatureCache cache_;
  std::uint64_t swap_epoch_ = 0;
  obs::monitor::QualityMonitor* monitor_ = nullptr;
};

}  // namespace forumcast::serve
