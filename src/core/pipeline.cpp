#include "core/pipeline.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "artifact/artifact.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace forumcast::core {

std::vector<TimingThread> build_timing_threads(
    const forum::Dataset& dataset, const features::FeatureExtractor& extractor,
    std::span<const forum::AnsweredPair> pairs, double last_post_time,
    std::size_t survival_samples_per_thread, std::uint64_t seed) {
  return build_timing_threads(
      dataset,
      FeatureFn([&extractor](forum::UserId u, forum::QuestionId q) {
        return extractor.features(u, q);
      }),
      pairs, last_post_time, survival_samples_per_thread, seed);
}

std::vector<TimingThread> build_timing_threads(
    const forum::Dataset& dataset, const FeatureFn& features,
    std::span<const forum::AnsweredPair> pairs, double last_post_time,
    std::size_t survival_samples_per_thread, std::uint64_t seed) {
  FORUMCAST_CHECK(!pairs.empty());

  // Group pairs by question.
  std::unordered_map<forum::QuestionId, std::vector<const forum::AnsweredPair*>>
      by_question;
  for (const auto& pair : pairs) by_question[pair.question].push_back(&pair);

  util::Rng rng(seed);
  std::vector<TimingThread> threads;
  threads.reserve(by_question.size());

  // Deterministic question order.
  std::vector<forum::QuestionId> questions;
  questions.reserve(by_question.size());
  for (const auto& [q, _] : by_question) questions.push_back(q);
  std::sort(questions.begin(), questions.end());

  const std::size_t num_users = dataset.num_users();
  for (forum::QuestionId q : questions) {
    const forum::Thread& thread_data = dataset.thread(q);
    TimingThread thread;
    thread.open_duration =
        std::max(1e-3, last_post_time - thread_data.question.timestamp_hours);

    std::unordered_set<forum::UserId> answering;
    for (const auto* pair : by_question[q]) {
      thread.answers.push_back(
          {features(pair->user, q), pair->delay_hours});
      // Answerers appear in the survival term exactly (weight 1).
      thread.survival.push_back({features(pair->user, q), 1.0});
      answering.insert(pair->user);
    }
    answering.insert(thread_data.question.creator);

    const std::size_t non_answerers = num_users - answering.size();
    const std::size_t samples =
        std::min(survival_samples_per_thread, non_answerers);
    if (samples > 0) {
      const double weight = static_cast<double>(non_answerers) /
                            static_cast<double>(samples);
      std::unordered_set<forum::UserId> drawn;
      while (drawn.size() < samples) {
        const auto u = static_cast<forum::UserId>(rng.uniform_index(num_users));
        if (answering.contains(u) || drawn.contains(u)) continue;
        drawn.insert(u);
        thread.survival.push_back({features(u, q), weight});
      }
    }
    threads.push_back(std::move(thread));
  }
  return threads;
}

ForecastPipeline::ForecastPipeline(PipelineConfig config)
    : config_(std::move(config)),
      answer_(config_.answer),
      vote_(config_.vote),
      timing_(config_.timing) {
  const std::size_t fit_threads = config_.fit_threads == 0
                                      ? util::default_thread_count()
                                      : config_.fit_threads;
  if (fit_threads != 1) config_.extractor.lda.threads = fit_threads;
}

void ForecastPipeline::fit(const forum::Dataset& dataset,
                           std::span<const forum::QuestionId> history_questions) {
  FORUMCAST_CHECK(!history_questions.empty());
  FORUMCAST_SPAN_NAMED(fit_span, "pipeline.fit");
  fit_span.arg("history_questions",
               static_cast<double>(history_questions.size()));
  dataset_ = &dataset;
  // Per-stage wall-clock histograms: stage costs are very uneven (timing
  // dominates), so per-stage timings are what the bench regressions and any
  // perf triage actually need.
  util::Timer stage_timer;
  {
    FORUMCAST_SPAN("pipeline.extractor_build");
    extractor_ = std::make_unique<features::FeatureExtractor>(
        dataset, history_questions, config_.extractor);
  }
  FORUMCAST_HISTOGRAM_OBSERVE("pipeline.fit.extractor_build_ms",
                              stage_timer.milliseconds(), 10, 100, 1000, 10000,
                              60000);
  last_post_time_ = dataset.last_post_time();

  const auto positives = dataset.answered_pairs(history_questions);
  FORUMCAST_CHECK_MSG(!positives.empty(), "history window has no answers");
  FORUMCAST_LOG_INFO_KV("pipeline.fit",
                        {"history_questions", history_questions.size()},
                        {"positives", positives.size()});

  // --- Answer classifier: positives + sampled negatives. ---
  const auto negative_count = static_cast<std::size_t>(
      static_cast<double>(positives.size()) * config_.negatives_per_positive);
  const auto negatives = eval::sample_negative_pairs(
      dataset, history_questions, negative_count, config_.seed ^ 0x9999ULL);
  std::vector<std::vector<double>> answer_rows;
  std::vector<int> answer_labels;
  {
    FORUMCAST_SPAN("pipeline.answer_rows");
    for (const auto& pair : positives) {
      answer_rows.push_back(extractor_->features(pair.user, pair.question));
      answer_labels.push_back(1);
    }
    for (const auto& pair : negatives) {
      answer_rows.push_back(extractor_->features(pair.user, pair.question));
      answer_labels.push_back(0);
    }
  }
  // Drift reference: the histogram of the very matrix the answer classifier
  // trains on. Captured before fit() consumes the rows so serving-time PSI
  // compares against exactly what the model saw.
  baseline_ = features::FeatureBaseline::from_rows(answer_rows);

  answer_ = AnswerPredictor(config_.answer);
  stage_timer.reset();
  answer_.fit(answer_rows, answer_labels);
  FORUMCAST_HISTOGRAM_OBSERVE("pipeline.fit.answer_ms",
                              stage_timer.milliseconds(), 10, 100, 1000, 10000,
                              60000);

  // --- Vote regressor. ---
  std::vector<std::vector<double>> vote_rows;
  std::vector<double> vote_targets;
  for (const auto& pair : positives) {
    vote_rows.push_back(extractor_->features(pair.user, pair.question));
    vote_targets.push_back(static_cast<double>(pair.votes));
  }
  vote_ = VotePredictor(config_.vote);
  stage_timer.reset();
  vote_.fit(vote_rows, vote_targets);
  FORUMCAST_HISTOGRAM_OBSERVE("pipeline.fit.vote_ms",
                              stage_timer.milliseconds(), 10, 100, 1000, 10000,
                              60000);

  // --- Point-process timing model. ---
  FORUMCAST_SPAN_NAMED(timing_span, "pipeline.timing_threads");
  const auto threads = build_timing_threads(
      dataset, *extractor_, positives, last_post_time_,
      config_.survival_samples_per_thread, config_.seed ^ 0x7117ULL);
  timing_span.end();
  timing_ = TimingPredictor(config_.timing);
  stage_timer.reset();
  timing_.fit(threads);
  FORUMCAST_HISTOGRAM_OBSERVE("pipeline.fit.timing_ms",
                              stage_timer.milliseconds(), 10, 100, 1000, 10000,
                              60000);
  ++generation_;
}

Prediction ForecastPipeline::predict(forum::UserId u, forum::QuestionId q) const {
  FORUMCAST_CHECK(fitted());
  FORUMCAST_COUNTER_ADD("pipeline.predictions", 1);
  const auto x = extractor_->features(u, q);
  const ml::Tensor<const double> row = ml::one_row(x);
  Prediction prediction;
  answer_.predict_probability_batch(row, {&prediction.answer_probability, 1});
  vote_.predict_batch(row, {&prediction.votes, 1});
  timing_.predict_delay_batch(row, question_open_duration(q),
                              {&prediction.delay_hours, 1});
  return prediction;
}

const forum::Dataset& ForecastPipeline::dataset() const {
  FORUMCAST_CHECK(fitted());
  return *dataset_;
}

double ForecastPipeline::question_open_duration(forum::QuestionId q) const {
  FORUMCAST_CHECK(fitted());
  return std::max(
      1e-3, last_post_time_ - dataset_->thread(q).question.timestamp_hours);
}

const features::FeatureExtractor& ForecastPipeline::extractor() const {
  FORUMCAST_CHECK(fitted());
  return *extractor_;
}

features::FeatureExtractor& ForecastPipeline::extractor_mutable() {
  FORUMCAST_CHECK(fitted());
  return *extractor_;
}

void ForecastPipeline::save(std::ostream& out) const {
  FORUMCAST_CHECK_MSG(fitted(), "cannot save an unfitted ForecastPipeline");
  FORUMCAST_SPAN("pipeline.save");
  artifact::BundleWriter writer(out);

  // Dataset fingerprint: load() refuses a bundle fitted against a different
  // forum snapshot — the extractor state indexes users and questions by id,
  // so a mismatch would mis-features silently, not fail loudly.
  artifact::Encoder meta;
  meta.u64(dataset_->num_questions());
  meta.u64(dataset_->num_users());
  meta.u64(dataset_->stats().answers);
  meta.f64(last_post_time_, "meta last post time");
  meta.u64(generation_);
  writer.section(artifact::SectionKind::kMeta, meta);

  artifact::Encoder extractor;
  extractor_->encode(extractor);
  writer.section(artifact::SectionKind::kExtractor, extractor);

  artifact::Encoder answer;
  answer_.encode(answer);
  writer.section(artifact::SectionKind::kAnswerPredictor, answer);

  artifact::Encoder vote;
  vote_.encode(vote);
  writer.section(artifact::SectionKind::kVotePredictor, vote);

  artifact::Encoder timing;
  timing_.encode(timing);
  writer.section(artifact::SectionKind::kTimingPredictor, timing);

  if (!baseline_.empty()) {
    artifact::Encoder baseline;
    baseline_.encode(baseline);
    writer.section(artifact::SectionKind::kFeatureBaseline, baseline);
  }

  // The centrality knob rides along so a loaded model keeps refreshing its
  // SLN centralities the way it was fitted (exact vs pivot-sampled).
  {
    artifact::Encoder centrality;
    const graph::CentralityConfig& cfg = config_.extractor.centrality;
    centrality.u32(1);  // centrality section format
    centrality.u8(static_cast<std::uint8_t>(cfg.mode));
    centrality.u64(cfg.num_pivots);
    centrality.u64(cfg.seed);
    writer.section(artifact::SectionKind::kCentralityConfig, centrality);
  }

  writer.finish();
  FORUMCAST_COUNTER_ADD("pipeline.bundle_saves", 1);
}

ForecastPipeline ForecastPipeline::load(std::istream& in,
                                        const forum::Dataset& dataset) {
  FORUMCAST_SPAN("pipeline.load");
  artifact::BundleReader reader(in);

  auto meta = reader.expect(artifact::SectionKind::kMeta);
  const std::uint64_t questions = meta.u64("meta question count");
  const std::uint64_t users = meta.u64("meta user count");
  const std::uint64_t answers = meta.u64("meta answer count");
  const double last_post_time = meta.f64("meta last post time");
  const std::uint64_t generation = meta.u64("meta generation");
  meta.finish();
  FORUMCAST_CHECK_MSG(questions == dataset.num_questions(),
                      "model bundle fingerprint mismatch: bundle fitted on "
                          << questions << " questions, dataset has "
                          << dataset.num_questions());
  FORUMCAST_CHECK_MSG(users == dataset.num_users(),
                      "model bundle fingerprint mismatch: bundle fitted on "
                          << users << " users, dataset has "
                          << dataset.num_users());
  FORUMCAST_CHECK_MSG(answers == dataset.stats().answers,
                      "model bundle fingerprint mismatch: bundle fitted on "
                          << answers << " answers, dataset has "
                          << dataset.stats().answers);
  FORUMCAST_CHECK_MSG(last_post_time == dataset.last_post_time(),
                      "model bundle fingerprint mismatch: bundle last post "
                      "time "
                          << last_post_time << ", dataset "
                          << dataset.last_post_time());
  FORUMCAST_CHECK_MSG(generation >= 1,
                      "model bundle carries generation 0 (unfitted)");

  ForecastPipeline pipeline;
  pipeline.dataset_ = &dataset;
  pipeline.last_post_time_ = last_post_time;
  pipeline.generation_ = generation;

  auto extractor = reader.expect(artifact::SectionKind::kExtractor);
  pipeline.extractor_ = features::FeatureExtractor::decode(extractor, dataset);
  extractor.finish();
  pipeline.config_.extractor = pipeline.extractor_->config();

  auto answer = reader.expect(artifact::SectionKind::kAnswerPredictor);
  pipeline.answer_ = AnswerPredictor::decode(answer);
  answer.finish();

  auto vote = reader.expect(artifact::SectionKind::kVotePredictor);
  pipeline.vote_ = VotePredictor::decode(vote);
  vote.finish();

  auto timing = reader.expect(artifact::SectionKind::kTimingPredictor);
  pipeline.timing_ = TimingPredictor::decode(timing);
  timing.finish();

  // Every predictor consumes the extractor's 18 + 2K features; a bundle
  // stitched from fits with different topic counts would pass its CRCs and
  // then fail every score, so refuse it here.
  const std::size_t dim = pipeline.extractor_->dimension();
  for (const auto& [name, input_dim] :
       {std::pair{"answer", pipeline.answer_.input_dim()},
        std::pair{"vote", pipeline.vote_.input_dim()},
        std::pair{"timing", pipeline.timing_.input_dim()}}) {
    FORUMCAST_CHECK_MSG(input_dim == dim,
                        "model bundle shape mismatch: " << name
                            << " predictor expects " << input_dim
                            << " features, extractor produces " << dim);
  }

  // Optional trailer: bundles written before the drift baseline existed end
  // right after the timing predictor. Loading them leaves the baseline
  // empty, and the monitor reports "no baseline" instead of fake PSI.
  if (auto baseline = reader.try_expect(artifact::SectionKind::kFeatureBaseline)) {
    pipeline.baseline_ = features::FeatureBaseline::decode(*baseline);
    baseline->finish();
  }

  // Optional trailer #2: bundles written before the exact↔sampled knob
  // existed default to exact, which is also what the decoded extractor
  // assumes — nothing to patch in that case.
  if (auto centrality =
          reader.try_expect(artifact::SectionKind::kCentralityConfig)) {
    const std::uint32_t format = centrality->u32("centrality format");
    FORUMCAST_CHECK_MSG(format == 1, "model bundle: unknown centrality "
                                     "section format "
                                         << format);
    const std::uint8_t mode = centrality->u8("centrality mode");
    FORUMCAST_CHECK_MSG(mode <= 1,
                        "model bundle: unknown centrality mode " << +mode);
    graph::CentralityConfig cfg;
    cfg.mode = static_cast<graph::CentralityMode>(mode);
    cfg.num_pivots = centrality->u64("centrality num pivots");
    FORUMCAST_CHECK_MSG(cfg.num_pivots >= 1,
                        "model bundle: centrality num pivots must be >= 1");
    cfg.seed = centrality->u64("centrality seed");
    centrality->finish();
    pipeline.extractor_->set_centrality_config(cfg);
    pipeline.config_.extractor.centrality = cfg;
  }

  reader.finish();
  FORUMCAST_COUNTER_ADD("pipeline.bundle_loads", 1);
  return pipeline;
}

}  // namespace forumcast::core
