// Whole-pipeline bundle round trip: save a fitted ForecastPipeline, load it
// back, and require bit-identical predictions on both the scalar and batch
// paths (compared via FNV-1a digests, the same invariant the CI round-trip
// job enforces across processes). Also covers the fingerprint check, bundle
// corruption, predictor shape validation, and BatchScorer's atomic hot swap
// onto a loaded model.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "artifact/artifact.hpp"
#include "core/pipeline.hpp"
#include "forum/generator.hpp"
#include "serve/batch_scorer.hpp"
#include "util/check.hpp"
#include "util/digest.hpp"

namespace forumcast::core {
namespace {

PipelineConfig fast_config() {
  PipelineConfig config;
  config.extractor.lda.iterations = 15;
  config.answer.logistic.epochs = 40;
  config.vote.epochs = 20;
  config.timing.epochs = 8;
  config.survival_samples_per_thread = 5;
  return config;
}

forum::Dataset small_dataset(std::uint64_t seed, std::size_t users = 150,
                             std::size_t questions = 140) {
  forum::GeneratorConfig config;
  config.num_users = users;
  config.num_questions = questions;
  config.seed = seed;
  return forum::generate_forum(config).dataset.preprocessed();
}

// One fitted pipeline + its saved bundle, shared across tests (fitting
// dominates runtime).
struct RoundTripFixture {
  forum::Dataset dataset;
  ForecastPipeline pipeline;
  std::string bundle;

  static RoundTripFixture& instance() {
    static RoundTripFixture fixture;
    return fixture;
  }

 private:
  RoundTripFixture() : dataset(small_dataset(611)), pipeline(fast_config()) {
    const auto history = dataset.questions_in_days(1, 25);
    pipeline.fit(dataset, history);
    std::ostringstream out;
    pipeline.save(out);
    bundle = std::move(out).str();
  }
};

std::vector<forum::UserId> all_users(const forum::Dataset& dataset) {
  std::vector<forum::UserId> users(dataset.num_users());
  for (std::size_t i = 0; i < users.size(); ++i) {
    users[i] = static_cast<forum::UserId>(i);
  }
  return users;
}

/// FNV-1a over every prediction field for a probe set of pairs — equal
/// digests ⇒ bit-identical predictions.
std::uint64_t scalar_digest(const ForecastPipeline& pipeline,
                            const forum::Dataset& dataset) {
  util::Fnv1a digest;
  const auto users = all_users(dataset);
  for (forum::QuestionId q :
       {forum::QuestionId{0},
        static_cast<forum::QuestionId>(dataset.num_questions() / 2),
        static_cast<forum::QuestionId>(dataset.num_questions() - 1)}) {
    for (forum::UserId u : users) {
      const Prediction p = pipeline.predict(u, q);
      digest.f64(p.answer_probability);
      digest.f64(p.votes);
      digest.f64(p.delay_hours);
    }
  }
  return digest.value();
}

std::uint64_t batch_digest(const serve::BatchScorer& scorer,
                           const forum::Dataset& dataset) {
  util::Fnv1a digest;
  const auto users = all_users(dataset);
  for (forum::QuestionId q :
       {forum::QuestionId{0},
        static_cast<forum::QuestionId>(dataset.num_questions() / 2),
        static_cast<forum::QuestionId>(dataset.num_questions() - 1)}) {
    for (const Prediction& p : scorer.score(q, users)) {
      digest.f64(p.answer_probability);
      digest.f64(p.votes);
      digest.f64(p.delay_hours);
    }
  }
  return digest.value();
}

TEST(ArtifactRoundTrip, LoadedPipelinePredictsBitIdentically) {
  auto& fixture = RoundTripFixture::instance();
  std::istringstream in(fixture.bundle);
  const ForecastPipeline loaded = ForecastPipeline::load(in, fixture.dataset);
  EXPECT_TRUE(loaded.fitted());
  EXPECT_EQ(loaded.generation(), fixture.pipeline.generation());

  // Field-level bit parity on a probe set (failure here names the pair)...
  const auto users = all_users(fixture.dataset);
  const forum::QuestionId probe = 3;
  for (forum::UserId u : users) {
    const Prediction a = fixture.pipeline.predict(u, probe);
    const Prediction b = loaded.predict(u, probe);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.answer_probability),
              std::bit_cast<std::uint64_t>(b.answer_probability))
        << "user " << u;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.votes),
              std::bit_cast<std::uint64_t>(b.votes))
        << "user " << u;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.delay_hours),
              std::bit_cast<std::uint64_t>(b.delay_hours))
        << "user " << u;
  }
  // ...and the digest form the CI job uses across processes.
  EXPECT_EQ(scalar_digest(loaded, fixture.dataset),
            scalar_digest(fixture.pipeline, fixture.dataset));
}

TEST(ArtifactRoundTrip, BatchPathBitIdenticalAfterLoad) {
  auto& fixture = RoundTripFixture::instance();
  std::istringstream in(fixture.bundle);
  const ForecastPipeline loaded = ForecastPipeline::load(in, fixture.dataset);
  const serve::BatchScorer original_scorer(fixture.pipeline);
  const serve::BatchScorer loaded_scorer(loaded);
  const std::uint64_t expected = batch_digest(original_scorer, fixture.dataset);
  EXPECT_EQ(batch_digest(loaded_scorer, fixture.dataset), expected);
  // Batch equals scalar equals saved-then-loaded: one digest for all four.
  EXPECT_EQ(scalar_digest(loaded, fixture.dataset), expected);
}

TEST(ArtifactRoundTrip, SaveIsDeterministic) {
  auto& fixture = RoundTripFixture::instance();
  std::ostringstream again;
  fixture.pipeline.save(again);
  EXPECT_EQ(std::move(again).str(), fixture.bundle);
}

TEST(ArtifactRoundTrip, SaveRejectsUnfittedPipeline) {
  ForecastPipeline unfitted(fast_config());
  std::ostringstream out;
  EXPECT_THROW(unfitted.save(out), util::CheckError);
}

TEST(ArtifactRoundTrip, LoadRejectsMismatchedDataset) {
  auto& fixture = RoundTripFixture::instance();
  const forum::Dataset other = small_dataset(612, 140, 130);
  std::istringstream in(fixture.bundle);
  try {
    ForecastPipeline::load(in, other);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint mismatch"),
              std::string::npos)
        << error.what();
  }
}

TEST(ArtifactRoundTrip, LoadRejectsCorruptBundle) {
  auto& fixture = RoundTripFixture::instance();
  // Flip one payload byte well past the header: the section CRC must catch
  // it before any model state is built.
  std::string corrupt = fixture.bundle;
  corrupt[corrupt.size() / 2] ^= 0x10;
  std::istringstream in(corrupt);
  EXPECT_THROW(ForecastPipeline::load(in, fixture.dataset), util::CheckError);
}

/// Re-encodes `base` section by section into `writer`, taking the predictor
/// of kind `foreign_kind` from `donor` instead (kMeta = none). Optional
/// trailers are left out; the loader treats them as absent.
void write_stitched_sections(artifact::BundleWriter& writer,
                             const ForecastPipeline& base,
                             const ForecastPipeline& donor,
                             const forum::Dataset& dataset,
                             artifact::SectionKind foreign_kind) {
  artifact::Encoder meta;
  meta.u64(dataset.num_questions());
  meta.u64(dataset.num_users());
  meta.u64(dataset.stats().answers);
  meta.f64(dataset.last_post_time(), "meta last post time");
  meta.u64(base.generation());
  writer.section(artifact::SectionKind::kMeta, meta);
  artifact::Encoder extractor;
  base.extractor().encode(extractor);
  writer.section(artifact::SectionKind::kExtractor, extractor);
  const auto pick = [&](artifact::SectionKind kind) -> const ForecastPipeline& {
    return kind == foreign_kind ? donor : base;
  };
  artifact::Encoder answer, vote, timing;
  pick(artifact::SectionKind::kAnswerPredictor).answer_predictor().encode(answer);
  writer.section(artifact::SectionKind::kAnswerPredictor, answer);
  pick(artifact::SectionKind::kVotePredictor).vote_predictor().encode(vote);
  writer.section(artifact::SectionKind::kVotePredictor, vote);
  pick(artifact::SectionKind::kTimingPredictor).timing_predictor().encode(timing);
  writer.section(artifact::SectionKind::kTimingPredictor, timing);
}

std::string stitched_bundle(const ForecastPipeline& base,
                            const ForecastPipeline& donor,
                            const forum::Dataset& dataset,
                            artifact::SectionKind foreign_kind) {
  std::ostringstream out;
  artifact::BundleWriter writer(out);
  write_stitched_sections(writer, base, donor, dataset, foreign_kind);
  writer.finish();
  return std::move(out).str();
}

TEST(ArtifactRoundTrip, LoadRejectsPredictorShapeMismatch) {
  // A bundle whose CRCs are all valid but whose predictor was fitted with a
  // different LDA topic count K (feature dimension 18 + 2K) must be refused
  // at load, not accepted and then fail every score.
  auto& fixture = RoundTripFixture::instance();
  PipelineConfig config = fast_config();
  config.extractor.num_topics = fixture.pipeline.extractor().num_topics() + 2;
  ForecastPipeline donor(config);
  donor.fit(fixture.dataset, fixture.dataset.questions_in_days(1, 25));
  ASSERT_NE(donor.extractor().dimension(),
            fixture.pipeline.extractor().dimension());

  {
    // Control: the same stitching with no foreign section loads.
    std::istringstream in(stitched_bundle(fixture.pipeline, donor,
                                          fixture.dataset,
                                          artifact::SectionKind::kMeta));
    EXPECT_NO_THROW(ForecastPipeline::load(in, fixture.dataset));
  }
  for (const auto& [kind, name] :
       {std::pair{artifact::SectionKind::kAnswerPredictor, "answer"},
        std::pair{artifact::SectionKind::kVotePredictor, "vote"},
        std::pair{artifact::SectionKind::kTimingPredictor, "timing"}}) {
    std::istringstream in(
        stitched_bundle(fixture.pipeline, donor, fixture.dataset, kind));
    try {
      ForecastPipeline::load(in, fixture.dataset);
      ADD_FAILURE() << name << ": expected CheckError";
    } catch (const util::CheckError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("shape mismatch"), std::string::npos) << what;
      EXPECT_NE(what.find(name), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(donor.extractor().dimension())),
                std::string::npos)
          << what;
    }
  }
}

TEST(ArtifactRoundTrip, LoadRejectsRetiredQuantizedMlpSection) {
  // Section kind 9 once carried an int8 copy of the vote network. Nothing
  // reads it any more, so a bundle that still has one must be refused by
  // name instead of loading without it.
  auto& fixture = RoundTripFixture::instance();
  std::ostringstream out;
  artifact::BundleWriter writer(out);
  write_stitched_sections(writer, fixture.pipeline, fixture.pipeline,
                          fixture.dataset, artifact::SectionKind::kMeta);
  artifact::Encoder retired;
  retired.u64(0);
  writer.section(artifact::SectionKind::kQuantizedMlp, retired);
  writer.finish();
  std::istringstream in(std::move(out).str());
  try {
    ForecastPipeline::load(in, fixture.dataset);
    ADD_FAILURE() << "expected CheckError";
  } catch (const util::CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("quantized_mlp"), std::string::npos) << what;
  }
}

TEST(ArtifactRoundTrip, HotSwapInvalidatesCacheAndMatchesColdScorer) {
  auto& fixture = RoundTripFixture::instance();
  auto loaded = std::make_shared<const ForecastPipeline>(
      [&] {
        std::istringstream in(fixture.bundle);
        return ForecastPipeline::load(in, fixture.dataset);
      }());

  serve::BatchScorer scorer(fixture.pipeline);
  const auto users = all_users(fixture.dataset);
  const forum::QuestionId probe = 7;
  scorer.score(probe, users);  // warm the cache on the old model
  const auto warm = scorer.cache_stats();
  EXPECT_GT(warm.user_misses, 0u);
  EXPECT_EQ(scorer.swap_epoch(), 0u);

  scorer.swap_model(loaded);
  EXPECT_EQ(scorer.swap_epoch(), 1u);
  EXPECT_EQ(scorer.pipeline().get(), loaded.get());

  const auto swapped = scorer.score(probe, users);
  // The swap dropped every cached block: the next score() re-filled from
  // scratch, exactly as a refit generation bump does.
  const auto stats = scorer.cache_stats();
  EXPECT_EQ(stats.invalidations, warm.invalidations + 1);
  EXPECT_GE(stats.blocks_dropped, warm.user_misses + 1);
  EXPECT_GE(stats.user_misses, 2 * warm.user_misses);

  // Post-swap scores are bit-equal to a cold scorer over the new model.
  const serve::BatchScorer cold(*loaded);
  const auto expected = cold.score(probe, users);
  ASSERT_EQ(swapped.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(swapped[i].answer_probability),
              std::bit_cast<std::uint64_t>(expected[i].answer_probability));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(swapped[i].votes),
              std::bit_cast<std::uint64_t>(expected[i].votes));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(swapped[i].delay_hours),
              std::bit_cast<std::uint64_t>(expected[i].delay_hours));
  }
  EXPECT_EQ(batch_digest(scorer, fixture.dataset),
            batch_digest(cold, fixture.dataset));
}

}  // namespace
}  // namespace forumcast::core
