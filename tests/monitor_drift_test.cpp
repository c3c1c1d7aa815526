// Drift detection statistics and reservoir determinism.
//
// PSI must stay quiet on iid resamples of the fit distribution and fire on a
// genuine mean shift; the streaming-AUC reservoir must be a pure function of
// (seed, insertion order) — in particular, bit-identical no matter how many
// threads the batched scorer used internally to produce the predictions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "features/baseline.hpp"
#include "forum/generator.hpp"
#include "obs/monitor/drift.hpp"
#include "obs/monitor/monitor.hpp"
#include "obs/monitor/quality.hpp"
#include "serve/batch_scorer.hpp"
#include "util/rng.hpp"

namespace forumcast::obs::monitor {
namespace {

constexpr std::size_t kDim = 3;

std::vector<std::vector<double>> gaussian_rows(std::size_t rows, double mean,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> matrix(rows, std::vector<double>(kDim));
  for (auto& row : matrix) {
    for (std::size_t c = 0; c < kDim; ++c) {
      // Per-column scale so every column exercises its own bin edges.
      row[c] = rng.normal(mean, 1.0 + static_cast<double>(c));
    }
  }
  return matrix;
}

TEST(DriftDetector, PsiNearZeroOnIidResample) {
  DriftDetector drift(/*min_samples=*/50);
  drift.set_baseline(features::FeatureBaseline::from_rows(
      gaussian_rows(4000, /*mean=*/0.0, /*seed=*/11)));
  for (const auto& row : gaussian_rows(4000, /*mean=*/0.0, /*seed=*/929)) {
    drift.observe(row);
  }
  ASSERT_TRUE(drift.psi_max().has_value());
  EXPECT_LT(*drift.psi_max(), 0.05);
}

TEST(DriftDetector, PsiFiresOnMeanShift) {
  DriftDetector drift(/*min_samples=*/50);
  drift.set_baseline(features::FeatureBaseline::from_rows(
      gaussian_rows(4000, /*mean=*/0.0, /*seed=*/11)));
  // One standard deviation of shift on every column: the canonical
  // "refit needed" situation the 0.25 SLO default encodes.
  for (const auto& row : gaussian_rows(4000, /*mean=*/1.0, /*seed=*/929)) {
    drift.observe(row);
  }
  ASSERT_TRUE(drift.psi_max().has_value());
  EXPECT_GT(*drift.psi_max(), 0.25);
  // Every column shifted, so every per-column PSI should react.
  for (const double psi : drift.per_column_psi()) EXPECT_GT(psi, 0.1);
}

TEST(DriftDetector, SilentBelowMinSamplesAndAfterReset) {
  DriftDetector drift(/*min_samples=*/50);
  drift.set_baseline(features::FeatureBaseline::from_rows(
      gaussian_rows(500, 0.0, 11)));
  for (const auto& row : gaussian_rows(49, 0.0, 3)) drift.observe(row);
  EXPECT_FALSE(drift.psi_max().has_value());
  for (const auto& row : gaussian_rows(10, 0.0, 4)) drift.observe(row);
  EXPECT_TRUE(drift.psi_max().has_value());
  drift.reset_window();  // hot swap: old traffic must not indict the new model
  EXPECT_FALSE(drift.psi_max().has_value());
  EXPECT_TRUE(drift.has_baseline());
}

TEST(DriftDetector, SmoothingKeepsDisjointHistogramsFinite) {
  const std::vector<std::uint64_t> expected{100, 0, 0, 0};
  const std::vector<std::uint64_t> actual{0, 0, 0, 100};
  const double psi = DriftDetector::psi_between(expected, actual);
  EXPECT_TRUE(std::isfinite(psi));
  EXPECT_GT(psi, 1.0);  // total separation is a loud signal
  EXPECT_NEAR(DriftDetector::psi_between(expected, expected), 0.0, 1e-12);
}

TEST(ScoreReservoir, DeterministicAcrossInsertChunking) {
  // Replacement decisions depend only on (seed, items seen), so feeding the
  // same sequence in different batch sizes — which is all a different scorer
  // thread count can change upstream — cannot alter the sample.
  util::Rng rng(5);
  std::vector<std::pair<double, int>> sequence;
  for (int i = 0; i < 5000; ++i) {
    sequence.emplace_back(rng.uniform(), i % 7 == 0 ? 1 : 0);
  }
  std::uint64_t first_digest = 0;
  bool have_first = false;
  for (const std::size_t chunk : {1u, 3u, 64u, 5000u}) {
    ScoreReservoir reservoir(256, /*seed=*/2026);
    for (std::size_t i = 0; i < sequence.size(); i += chunk) {
      const std::size_t end = std::min(sequence.size(), i + chunk);
      for (std::size_t j = i; j < end; ++j) {
        reservoir.add(sequence[j].first, sequence[j].second);
      }
    }
    EXPECT_EQ(reservoir.size(), 256u);
    if (!have_first) {
      first_digest = reservoir.digest();
      have_first = true;
    } else {
      EXPECT_EQ(reservoir.digest(), first_digest) << "chunk " << chunk;
    }
  }
  // A different seed keeps different samples.
  ScoreReservoir other(256, /*seed=*/1);
  for (const auto& [score, label] : sequence) other.add(score, label);
  EXPECT_NE(other.digest(), first_digest);
}

TEST(ScoreReservoir, AucNeedsBothClasses) {
  ScoreReservoir reservoir(64, 1);
  for (int i = 0; i < 10; ++i) reservoir.add(0.5, 0);
  EXPECT_FALSE(reservoir.auc().has_value());
  reservoir.add(0.9, 1);
  ASSERT_TRUE(reservoir.auc().has_value());
  EXPECT_DOUBLE_EQ(*reservoir.auc(), 1.0);
}

#if FORUMCAST_OBS_ENABLED

// End-to-end determinism: the same traffic scored through BatchScorers with
// different row-block heights must leave bit-identical reservoirs —
// predictions do not depend on how a call splits its rows (serve parity
// tests) and reservoir insertion order is the record_batch call order.
TEST(QualityMonitor, ReservoirBitDeterministicAcrossScorerBlockSizes) {
  forum::GeneratorConfig generator;
  generator.num_users = 120;
  generator.num_questions = 100;
  generator.seed = 314;
  forum::Dataset dataset =
      forum::generate_forum(generator).dataset.preprocessed();

  core::PipelineConfig config;
  config.extractor.lda.iterations = 10;
  config.answer.logistic.epochs = 20;
  config.vote.epochs = 10;
  config.timing.epochs = 4;
  config.survival_samples_per_thread = 3;
  core::ForecastPipeline pipeline(config);
  pipeline.fit(dataset, dataset.questions_in_days(1, 30));

  std::vector<forum::UserId> users(dataset.num_users());
  for (std::size_t i = 0; i < users.size(); ++i) {
    users[i] = static_cast<forum::UserId>(i);
  }

  std::uint64_t reference_digest = 0;
  bool have_reference = false;
  // One row per block, several blocks per call, and one block per call.
  for (const std::size_t block_rows : {1u, 16u, 256u}) {
    QualityMonitor monitor;  // fixed default seed
    serve::BatchScorerConfig scorer_config;
    scorer_config.block_rows = block_rows;
    serve::BatchScorer scorer(pipeline, scorer_config);
    scorer.set_monitor(&monitor);

    for (forum::QuestionId q = 0; q < 20; ++q) {
      scorer.score(q, users);
      // Resolve every third question so the reservoir actually fills.
      if (q % 3 == 0) {
        monitor.observe_answer(q, dataset.thread(q).answers.empty()
                                      ? users.front()
                                      : dataset.thread(q).answers[0].creator,
                               4.0, static_cast<double>(q));
      }
    }
    if (!have_reference) {
      reference_digest = monitor.auc_reservoir_digest();
      have_reference = true;
      EXPECT_NE(reference_digest, 0u);
    } else {
      EXPECT_EQ(monitor.auc_reservoir_digest(), reference_digest)
          << "block_rows=" << block_rows;
    }
  }
}

#endif  // FORUMCAST_OBS_ENABLED

}  // namespace
}  // namespace forumcast::obs::monitor
