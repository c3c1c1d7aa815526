#include "serve/batch_scorer.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "ml/matrix.hpp"
#include "ml/workspace.hpp"
#include "obs/monitor/monitor.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace forumcast::serve {

BatchScorer::BatchScorer(const core::ForecastPipeline& pipeline,
                         BatchScorerConfig config)
    // Aliasing, non-owning shared_ptr: the caller keeps ownership, exactly
    // the pre-hot-swap contract ("must outlive the scorer").
    : BatchScorer(std::shared_ptr<const core::ForecastPipeline>(
                      std::shared_ptr<const core::ForecastPipeline>(),
                      &pipeline),
                  config) {}

BatchScorer::BatchScorer(std::shared_ptr<const core::ForecastPipeline> pipeline,
                         BatchScorerConfig config)
    : pipeline_(std::move(pipeline)),
      config_(config),
      cache_(config.max_cached_questions) {
  FORUMCAST_CHECK_MSG(pipeline_ != nullptr && pipeline_->fitted(),
                      "BatchScorer requires a fitted pipeline");
  config_.block_rows = std::max<std::size_t>(1, config_.block_rows);
}

std::vector<core::Prediction> BatchScorer::score(
    forum::QuestionId question, std::span<const forum::UserId> users) const {
  std::vector<core::Prediction> predictions(users.size());
  if (users.empty()) return predictions;

  FORUMCAST_SPAN_NAMED(span, "serve.batch_score");
  const auto score_start = std::chrono::steady_clock::now();

  // Snapshot phase, under the short lock: the served model, the cache bound
  // to its (swap epoch, generation) token, the immutable user table and the
  // question block. The shared_ptrs pin all three against a concurrent hot
  // swap, invalidation or eviction, so the scoring phase below reads them
  // with no lock held.
  std::shared_ptr<const core::ForecastPipeline> pipeline;
  std::shared_ptr<const FeatureCache::UserTable> table;
  std::shared_ptr<const FeatureCache::QuestionBlock> block;
  std::uint64_t ledger_token = 0;
  obs::monitor::QualityMonitor* monitor = nullptr;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    pipeline = pipeline_;
    const std::uint64_t epoch = swap_epoch_;
    monitor = monitor_;  // snapshot under the lock (set_monitor races)
    FORUMCAST_CHECK(pipeline->fitted());
    ledger_token = sync_token(epoch, pipeline->generation());
    cache_.sync(pipeline->extractor(), pipeline->dataset(), ledger_token);
    block = cache_.find_question(question);
    if (block != nullptr) break;

    // Miss: build the block unlocked against the pinned model, then publish
    // it only if no swap, refit or invalidation landed meanwhile — otherwise
    // it may be stale, so start over on the current state.
    const std::uint64_t version = cache_.version();
    lock.unlock();
    auto built = cache_.build_question(pipeline->extractor(),
                                       pipeline->dataset(), question);
    lock.lock();
    if (epoch == swap_epoch_ && version == cache_.version()) {
      block = cache_.publish_question(std::move(built));
      break;
    }
    FORUMCAST_COUNTER_ADD("serve.swap_retries", 1);
  }
  cache_.warm_users(users);
  table = cache_.user_table();
  lock.unlock();

  // Scoring phase, lock-free, on the calling thread: assemble each row block
  // and run all three predictors on it. Serving parallelism is one level —
  // the callers (the batcher's per-core workers) — so a request never waits
  // on helper threads that other requests keep busy.
  const double open_duration = pipeline->question_open_duration(question);
  const std::size_t dim = pipeline->extractor().dimension();
  const std::size_t block_rows = config_.block_rows;
  const std::size_t num_blocks = (users.size() + block_rows - 1) / block_rows;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t begin = b * block_rows;
    const std::size_t end = std::min(users.size(), begin + block_rows);
    const std::size_t rows = end - begin;

    // Scratch lives in the thread's workspace arena — reused across blocks
    // and score() calls once the arena hits its high-water mark. assemble
    // writes every element of its row and the predictors fill every output
    // slot, so the unspecified arena contents are never read.
    ml::Workspace::Frame frame;
    ml::Workspace& ws = frame.workspace();
    ml::Tensor<double> x = ws.tensor<double>(rows, dim);
    for (std::size_t r = 0; r < rows; ++r) {
      table->assemble(users[begin + r], *block, x.row(r));
    }

    std::span<double> answer{ws.alloc<double>(rows), rows};
    std::span<double> votes{ws.alloc<double>(rows), rows};
    std::span<double> delay{ws.alloc<double>(rows), rows};
    pipeline->answer_predictor().predict_probability_batch(x, answer);
    pipeline->vote_predictor().predict_batch(x, votes);
    pipeline->timing_predictor().predict_delay_batch(x, open_duration, delay);
    for (std::size_t r = 0; r < rows; ++r) {
      predictions[begin + r] = {answer[r], votes[r], delay[r]};
    }
  }

  FORUMCAST_COUNTER_ADD("serve.pairs_scored", users.size());
  FORUMCAST_COUNTER_ADD("serve.batches", 1);
  if (monitor != nullptr) {
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - score_start)
                          .count();
    monitor->record_batch(question, users, predictions, ledger_token);
    monitor->observe_score_latency(ms, users.size());
  }
  if (span.active()) {
    span.arg("pairs", static_cast<double>(users.size()));
    span.arg("blocks", static_cast<double>(num_blocks));
  }
  return predictions;
}

core::BatchPredictFn BatchScorer::predict_fn() const {
  return [this](forum::QuestionId question,
                std::span<const forum::UserId> users) {
    return score(question, users);
  };
}

void BatchScorer::invalidate(const CacheInvalidation& invalidation) {
  const std::lock_guard<std::mutex> lock(mutex_);
  cache_.invalidate(invalidation);
}

void BatchScorer::swap_model(
    std::shared_ptr<const core::ForecastPipeline> next) {
  FORUMCAST_CHECK_MSG(next != nullptr && next->fitted(),
                      "swap_model requires a fitted pipeline");
  obs::monitor::QualityMonitor* monitor = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    pipeline_ = std::move(next);
    ++swap_epoch_;
    monitor = monitor_;
    if (monitor != nullptr) next = pipeline_;  // keep alive for the baseline
  }
  FORUMCAST_COUNTER_ADD("serve.model_swaps", 1);
  // Outside the scorer lock (monitor → scorer calls don't exist, but there
  // is no reason to serialize serving behind a baseline copy either): the
  // incoming model's fit-time baseline becomes the drift reference and the
  // old model's live drift window is dropped.
  if (monitor != nullptr) monitor->on_model_swap(next->feature_baseline());
}

void BatchScorer::set_monitor(obs::monitor::QualityMonitor* monitor) {
  const std::lock_guard<std::mutex> lock(mutex_);
  monitor_ = monitor;
}

std::uint64_t BatchScorer::swap_epoch() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return swap_epoch_;
}

std::shared_ptr<const core::ForecastPipeline> BatchScorer::pipeline() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pipeline_;
}

FeatureCacheStats BatchScorer::cache_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.stats();
}

}  // namespace forumcast::serve
