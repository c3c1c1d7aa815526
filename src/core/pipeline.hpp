// End-to-end forecasting pipeline: features + the three predictors.
//
// Mirrors the block diagram of paper Fig. 1: forum data → feature
// construction → (a, v, r) predictors. The pipeline trains on a history
// window of questions (the F(q) inference set) and can then score any
// user-question pair. The free functions below assemble predictor training
// sets from answered pairs and are shared with the evaluation benches, which
// need finer-grained control (pair-level cross validation).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/answer_predictor.hpp"
#include "core/timing_predictor.hpp"
#include "core/vote_predictor.hpp"
#include "eval/sampling.hpp"
#include "features/baseline.hpp"
#include "features/extractor.hpp"
#include "forum/dataset.hpp"

namespace forumcast::core {

struct PipelineConfig {
  features::ExtractorConfig extractor = {};
  AnswerPredictorConfig answer = {};
  VotePredictorConfig vote = {};
  TimingPredictorConfig timing = {};
  /// Sampled non-answerers per thread for the point-process survival term.
  std::size_t survival_samples_per_thread = 20;
  /// Negatives sampled per positive for the answer classifier.
  double negatives_per_positive = 1.0;
  std::uint64_t seed = 99;
  /// Training parallelism: the number of AD-LDA Gibbs shards
  /// (extractor.lda.threads), the only fit stage whose work splits across
  /// threads and the only one whose bits depend on the count
  /// (deterministic for a fixed N). 0 resolves to
  /// util::default_thread_count(); 1 (the default) runs the serial sampler.
  /// Values other than 1 override extractor.lda.threads. Every other stage
  /// has one trainer and fits the same model whatever this is set to.
  std::size_t fit_threads = 1;
};

struct Prediction {
  double answer_probability = 0.0;  ///< â_{u,q}
  double votes = 0.0;               ///< v̂_{u,q}
  double delay_hours = 0.0;         ///< r̂_{u,q}
};

/// Callable producing x_{u,q}; lets callers swap in per-window extractors.
using FeatureFn =
    std::function<std::vector<double>(forum::UserId, forum::QuestionId)>;

/// Callable scoring one question against many candidate users at once,
/// returning one Prediction per candidate in order. The serving layer
/// (serve::BatchScorer) provides an implementation backed by feature caching
/// and batched model forwards; consumers like Recommender fall back to
/// per-pair ForecastPipeline::predict when none is supplied.
using BatchPredictFn = std::function<std::vector<Prediction>(
    forum::QuestionId, std::span<const forum::UserId>)>;

/// Builds the point-process training threads for `pairs`, sampling
/// non-answering users into each thread's survival term with importance
/// weights that extrapolate to the full user population.
std::vector<TimingThread> build_timing_threads(
    const forum::Dataset& dataset, const FeatureFn& features,
    std::span<const forum::AnsweredPair> pairs, double last_post_time,
    std::size_t survival_samples_per_thread, std::uint64_t seed);

/// Convenience overload over a single FeatureExtractor.
std::vector<TimingThread> build_timing_threads(
    const forum::Dataset& dataset, const features::FeatureExtractor& extractor,
    std::span<const forum::AnsweredPair> pairs, double last_post_time,
    std::size_t survival_samples_per_thread, std::uint64_t seed);

class ForecastPipeline {
 public:
  explicit ForecastPipeline(PipelineConfig config = {});

  /// Trains everything on the given history window (feature caches, topic
  /// model, SLN graphs, and all three predictors use only these questions).
  void fit(const forum::Dataset& dataset,
           std::span<const forum::QuestionId> history_questions);

  /// Scores any (u, q) of the fitted dataset. Requires fit(). Builds x_{u,q}
  /// with FeatureExtractor::features — the reference the serving caches are
  /// checked against — and runs the three predictors' batch entries on it as
  /// a batch of one, so it equals serve::BatchScorer::score bit for bit.
  Prediction predict(forum::UserId u, forum::QuestionId q) const;

  bool fitted() const { return extractor_ != nullptr; }
  const features::FeatureExtractor& extractor() const;

  /// Mutable extractor access for the streaming ingestion layer
  /// (stream::LiveState), which updates feature state in place as live
  /// events arrive instead of refitting. Requires fit(). Does not bump the
  /// generation: streamed updates invalidate serving caches fine-grained via
  /// the dirty set, not wholesale.
  features::FeatureExtractor& extractor_mutable();
  const AnswerPredictor& answer_predictor() const { return answer_; }
  const VotePredictor& vote_predictor() const { return vote_; }
  const TimingPredictor& timing_predictor() const { return timing_; }

  /// Fit-time feature-distribution histograms, captured over the answer
  /// classifier's training matrix and persisted with the bundle. Empty when
  /// the pipeline was loaded from a bundle written before the baseline
  /// section existed (drift detection then reports no data, never garbage).
  const features::FeatureBaseline& feature_baseline() const {
    return baseline_;
  }

  /// The dataset of the last fit(). Requires fit().
  const forum::Dataset& dataset() const;

  /// Δ_q = max(1e-3, T − t_q): how long question q has been open at the
  /// snapshot time T — the horizon predict() feeds the timing model.
  double question_open_duration(forum::QuestionId q) const;

  /// Monotonic snapshot token: bumped by every fit(), so caches keyed on it
  /// (serve::FeatureCache) notice when the forum snapshot they were built
  /// against is gone. Zero means never fitted.
  std::uint64_t generation() const { return generation_; }

  /// Writes the whole fitted pipeline — extractor (topics, aggregates, SLN
  /// graphs) plus all three predictors — as one versioned model bundle.
  /// Requires fit() and a quiesced extractor (no pending streamed updates).
  void save(std::ostream& out) const;

  /// Restores a pipeline from a bundle against `dataset`, which must match
  /// the fingerprint recorded at save time (named error otherwise). Runs
  /// zero fit stages; the loaded pipeline predicts bit-identically to the
  /// one that saved the bundle.
  static ForecastPipeline load(std::istream& in, const forum::Dataset& dataset);

 private:
  PipelineConfig config_;
  const forum::Dataset* dataset_ = nullptr;
  std::unique_ptr<features::FeatureExtractor> extractor_;
  AnswerPredictor answer_;
  VotePredictor vote_;
  TimingPredictor timing_;
  features::FeatureBaseline baseline_;
  double last_post_time_ = 0.0;
  std::uint64_t generation_ = 0;
};

}  // namespace forumcast::core
