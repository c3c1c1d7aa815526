// Batch scoring engine: parity with the scalar reference path, cache
// behaviour, and thread safety of serve::BatchScorer / serve::FeatureCache.
//
// The serving layer's core promise is that batching is purely an execution-
// layout change — scores are bit-identical to ForecastPipeline::predict. The
// parity tests therefore use exact equality, not tolerances.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/recommender.hpp"
#include "forum/generator.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "serve/batch_scorer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::serve {
namespace {

core::PipelineConfig fast_pipeline_config() {
  core::PipelineConfig config;
  config.extractor.lda.iterations = 15;
  config.answer.logistic.epochs = 40;
  config.vote.epochs = 20;
  config.timing.epochs = 8;
  config.survival_samples_per_thread = 5;
  return config;
}

// One small fitted pipeline shared by the parity tests (fitting dominates
// runtime; the refit test builds its own).
struct ServeFixture {
  forum::Dataset dataset;
  core::ForecastPipeline pipeline;

  static ServeFixture& instance() {
    static ServeFixture fixture;
    return fixture;
  }

 private:
  ServeFixture() : dataset(make_dataset()), pipeline(fast_pipeline_config()) {
    const auto history = dataset.questions_in_days(1, 25);
    pipeline.fit(dataset, history);
  }

  static forum::Dataset make_dataset() {
    forum::GeneratorConfig config;
    config.num_users = 150;
    config.num_questions = 140;
    config.seed = 611;
    return forum::generate_forum(config).dataset.preprocessed();
  }
};

std::vector<forum::UserId> all_users(const forum::Dataset& dataset) {
  std::vector<forum::UserId> users(dataset.num_users());
  for (std::size_t i = 0; i < users.size(); ++i) {
    users[i] = static_cast<forum::UserId>(i);
  }
  return users;
}

std::vector<forum::QuestionId> sample_questions(const forum::Dataset& dataset,
                                                std::size_t count,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<forum::QuestionId> questions(count);
  for (auto& q : questions) {
    q = static_cast<forum::QuestionId>(rng.uniform_index(dataset.num_questions()));
  }
  return questions;
}

TEST(MlpForwardBatch, BitIdenticalToScalarForward) {
  ml::Mlp net(7, {{20, ml::Activation::ReLU},
                  {20, ml::Activation::Tanh},
                  {3, ml::Activation::Identity}},
              99);
  util::Rng rng(5);
  const std::size_t rows = 33;  // exercises the 4-wide unroll remainder
  ml::Matrix x(rows, 7);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < 7; ++c) x(r, c) = rng.normal();
  }
  ml::Matrix y(rows, net.output_dim());
  net.forward_batch_into(x.view(), y.view());
  ASSERT_EQ(y.rows(), rows);
  ASSERT_EQ(y.cols(), 3u);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> row(7);
    for (std::size_t c = 0; c < 7; ++c) row[c] = x(r, c);
    const auto expected = net.forward(row);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(y(r, c), expected[c]) << "row " << r << " col " << c;
    }
  }
}

TEST(GemmNt, MatchesNaiveDotWithBias) {
  util::Rng rng(17);
  const std::size_t n = 9, m = 6, k = 11;
  std::vector<double> a(n * k), b(m * k), bias(m);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto& v : bias) v = rng.normal();
  std::vector<double> c(n * m, -1.0);
  ml::gemm_nt(n, m, k, a.data(), k, b.data(), k, bias.data(), c.data(), m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      double expected = bias[j];
      for (std::size_t kk = 0; kk < k; ++kk) {
        expected += a[i * k + kk] * b[j * k + kk];
      }
      EXPECT_EQ(c[i * m + j], expected) << i << "," << j;
    }
  }
}

TEST(BatchScorer, BitIdenticalToScalarPredict) {
  auto& fixture = ServeFixture::instance();
  const auto users = all_users(fixture.dataset);
  BatchScorer scorer(fixture.pipeline);
  for (const auto q : sample_questions(fixture.dataset, 4, 21)) {
    const auto batch = scorer.score(q, users);
    ASSERT_EQ(batch.size(), users.size());
    for (std::size_t i = 0; i < users.size(); ++i) {
      const auto scalar = fixture.pipeline.predict(users[i], q);
      EXPECT_EQ(batch[i].answer_probability, scalar.answer_probability)
          << "u=" << users[i] << " q=" << q;
      EXPECT_EQ(batch[i].votes, scalar.votes) << "u=" << users[i] << " q=" << q;
      EXPECT_EQ(batch[i].delay_hours, scalar.delay_hours)
          << "u=" << users[i] << " q=" << q;
    }
  }
}

TEST(BatchScorer, SmallAndOddBatchSizes) {
  auto& fixture = ServeFixture::instance();
  BatchScorer scorer(fixture.pipeline, {.block_rows = 7});
  const auto q = static_cast<forum::QuestionId>(0);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{17}}) {
    std::vector<forum::UserId> users;
    for (std::size_t i = 0; i < n; ++i) {
      users.push_back(static_cast<forum::UserId>(i));
    }
    const auto batch = scorer.score(q, users);
    ASSERT_EQ(batch.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto scalar = fixture.pipeline.predict(users[i], q);
      EXPECT_EQ(batch[i].answer_probability, scalar.answer_probability);
      EXPECT_EQ(batch[i].votes, scalar.votes);
      EXPECT_EQ(batch[i].delay_hours, scalar.delay_hours);
    }
  }
}

TEST(BatchScorer, CacheStatsTrackHitsAndMisses) {
  auto& fixture = ServeFixture::instance();
  const auto users = all_users(fixture.dataset);
  BatchScorer scorer(fixture.pipeline);
  const auto q = static_cast<forum::QuestionId>(1);
  scorer.score(q, users);
  const auto first = scorer.cache_stats();
  EXPECT_EQ(first.user_misses, users.size());
  EXPECT_EQ(first.question_misses, 1u);
  scorer.score(q, users);
  const auto second = scorer.cache_stats();
  EXPECT_EQ(second.user_misses, users.size());  // all warm now
  EXPECT_EQ(second.user_hits, first.user_hits + users.size());
  EXPECT_EQ(second.question_hits, first.question_hits + 1);
  EXPECT_EQ(second.question_misses, 1u);
}

TEST(BatchScorer, QuestionEvictionKeepsScoresCorrect) {
  auto& fixture = ServeFixture::instance();
  const auto users = all_users(fixture.dataset);
  BatchScorer scorer(fixture.pipeline, {.max_cached_questions = 2});
  const std::vector<forum::QuestionId> questions = {0, 1, 2, 3, 0, 1};
  for (const auto q : questions) {
    const auto batch = scorer.score(q, users);
    const auto scalar = fixture.pipeline.predict(users[7], q);
    EXPECT_EQ(batch[7].answer_probability, scalar.answer_probability);
  }
  EXPECT_GE(scorer.cache_stats().question_evictions, 1u);
}

TEST(BatchScorer, RefitInvalidatesCache) {
  forum::GeneratorConfig gen;
  gen.num_users = 120;
  gen.num_questions = 120;
  gen.seed = 77;
  const auto dataset = forum::generate_forum(gen).dataset.preprocessed();
  core::ForecastPipeline pipeline(fast_pipeline_config());

  pipeline.fit(dataset, dataset.questions_in_days(1, 20));
  BatchScorer scorer(pipeline);
  const auto users = all_users(dataset);
  const auto q = static_cast<forum::QuestionId>(dataset.num_questions() - 1);
  scorer.score(q, users);
  const auto generation_before = pipeline.generation();
  // Warming is not invalidation: nothing has been dropped yet.
  EXPECT_EQ(scorer.cache_stats().invalidations, 0u);
  EXPECT_EQ(scorer.cache_stats().blocks_dropped, 0u);

  // Refit on a different window: the extractor object is replaced, every
  // cached block must be dropped, and post-refit scores must equal the new
  // scalar path (not the stale features).
  pipeline.fit(dataset, dataset.questions_in_days(1, 28));
  ASSERT_GT(pipeline.generation(), generation_before);
  const auto batch = scorer.score(q, users);
  for (std::size_t i = 0; i < users.size(); ++i) {
    const auto scalar = pipeline.predict(users[i], q);
    EXPECT_EQ(batch[i].answer_probability, scalar.answer_probability);
    EXPECT_EQ(batch[i].votes, scalar.votes);
    EXPECT_EQ(batch[i].delay_hours, scalar.delay_hours);
  }
  // One invalidation event; it dropped every warmed block (all user blocks
  // from the first score plus the question block).
  EXPECT_GE(scorer.cache_stats().invalidations, 1u);
  EXPECT_GE(scorer.cache_stats().blocks_dropped, users.size() + 1);
}

TEST(BatchScorer, ConstantOmegaBitIdenticalToScalarPredict) {
  // Constant ω (the paper's best Stack Overflow variant): every row of a
  // block shares one decay, so the timing head's per-row estimator sees the
  // same (ω, Δ) the scalar path evaluates one pair at a time.
  forum::GeneratorConfig gen;
  gen.num_users = 120;
  gen.num_questions = 120;
  gen.seed = 77;
  const auto dataset = forum::generate_forum(gen).dataset.preprocessed();
  core::PipelineConfig config = fast_pipeline_config();
  config.timing.learn_omega = false;
  core::ForecastPipeline pipeline(config);
  pipeline.fit(dataset, dataset.questions_in_days(1, 20));
  BatchScorer scorer(pipeline, {.block_rows = 32});
  const auto users = all_users(dataset);
  for (const auto q : sample_questions(dataset, 3, 5)) {
    const auto batch = scorer.score(q, users);
    ASSERT_EQ(batch.size(), users.size());
    for (std::size_t i = 0; i < users.size(); ++i) {
      const auto scalar = pipeline.predict(users[i], q);
      EXPECT_EQ(batch[i].answer_probability, scalar.answer_probability);
      EXPECT_EQ(batch[i].votes, scalar.votes);
      EXPECT_EQ(batch[i].delay_hours, scalar.delay_hours)
          << "u=" << users[i] << " q=" << q;
    }
  }
}

TEST(BatchScorer, RecommenderBatchPathMatchesScalarPath) {
  auto& fixture = ServeFixture::instance();
  const auto users = all_users(fixture.dataset);
  BatchScorer scorer(fixture.pipeline);
  core::Recommender scalar_rec(fixture.pipeline, {.epsilon = 0.3});
  core::Recommender batch_rec(fixture.pipeline, scorer.predict_fn(),
                              {.epsilon = 0.3});
  const auto q =
      static_cast<forum::QuestionId>(fixture.dataset.num_questions() - 1);
  const auto scalar = scalar_rec.recommend(q, users);
  const auto batch = batch_rec.recommend(q, users);
  ASSERT_EQ(scalar.feasible, batch.feasible);
  if (!scalar.feasible) return;
  ASSERT_EQ(scalar.ranking.size(), batch.ranking.size());
  for (std::size_t i = 0; i < scalar.ranking.size(); ++i) {
    EXPECT_EQ(scalar.ranking[i].user, batch.ranking[i].user);
    EXPECT_EQ(scalar.ranking[i].probability, batch.ranking[i].probability);
    EXPECT_EQ(scalar.ranking[i].prediction.answer_probability,
              batch.ranking[i].prediction.answer_probability);
  }
}

TEST(BatchScorer, ConcurrentScoresMatchScalar) {
  auto& fixture = ServeFixture::instance();
  const auto users = all_users(fixture.dataset);
  BatchScorer scorer(fixture.pipeline, {.block_rows = 32});
  const auto questions = sample_questions(fixture.dataset, 8, 303);

  std::vector<std::vector<core::Prediction>> results(questions.size());
  std::vector<std::thread> workers;
  const std::size_t num_threads = 4;
  for (std::size_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < questions.size(); i += num_threads) {
        results[i] = scorer.score(questions[i], users);
      }
    });
  }
  for (auto& w : workers) w.join();

  for (std::size_t i = 0; i < questions.size(); ++i) {
    ASSERT_EQ(results[i].size(), users.size());
    // Spot-check a handful of pairs per question against the scalar path.
    for (const std::size_t u : {std::size_t{0}, std::size_t{49},
                                users.size() - 1}) {
      const auto scalar = fixture.pipeline.predict(users[u], questions[i]);
      EXPECT_EQ(results[i][u].answer_probability, scalar.answer_probability);
      EXPECT_EQ(results[i][u].votes, scalar.votes);
      EXPECT_EQ(results[i][u].delay_hours, scalar.delay_hours);
    }
  }
}

bool bit_equal(const std::vector<core::Prediction>& a,
               const std::vector<core::Prediction>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].answer_probability) !=
            std::bit_cast<std::uint64_t>(b[i].answer_probability) ||
        std::bit_cast<std::uint64_t>(a[i].votes) !=
            std::bit_cast<std::uint64_t>(b[i].votes) ||
        std::bit_cast<std::uint64_t>(a[i].delay_hours) !=
            std::bit_cast<std::uint64_t>(b[i].delay_hours)) {
      return false;
    }
  }
  return true;
}

TEST(BatchScorer, ColdScoresRacingInvalidationAndSwapMatchColdScorer) {
  // Scorers build cold question blocks outside the scorer lock while a
  // mutator drops everything, invalidates single users and questions, and
  // hot-swaps between two different models. Every answer must be bit-equal
  // to a cold scorer over one of the two models — never a mix of both and
  // never a block published across a swap or invalidation.
  auto& fixture = ServeFixture::instance();
  const auto model_a = std::shared_ptr<const core::ForecastPipeline>(
      std::shared_ptr<const core::ForecastPipeline>(), &fixture.pipeline);
  auto fitted_b =
      std::make_shared<core::ForecastPipeline>(fast_pipeline_config());
  fitted_b->fit(fixture.dataset, fixture.dataset.questions_in_days(1, 20));
  const std::shared_ptr<const core::ForecastPipeline> model_b = fitted_b;

  const auto users = all_users(fixture.dataset);
  const auto questions = sample_questions(fixture.dataset, 12, 919);
  std::vector<std::vector<core::Prediction>> expect_a, expect_b;
  {
    const BatchScorer cold_a(*model_a);
    const BatchScorer cold_b(*model_b);
    for (const auto q : questions) {
      expect_a.push_back(cold_a.score(q, users));
      expect_b.push_back(cold_b.score(q, users));
    }
  }
  ASSERT_FALSE(bit_equal(expect_a[0], expect_b[0]))
      << "the two models must answer differently for the test to bite";

  // Two cached questions: nearly every score builds its block cold.
  BatchScorer scorer(model_a, {.block_rows = 64, .max_cached_questions = 2});
  CacheInvalidation drop_everything;
  drop_everything.drop_all = true;
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    for (std::size_t round = 0; !stop.load(); ++round) {
      switch (round % 3) {
        case 0:
          scorer.invalidate(drop_everything);
          break;
        case 1:
          scorer.invalidate({.users = {users[3], users[40]},
                             .scalar_users = {users[7]},
                             .questions = {questions[0], questions[5]}});
          break;
        default:
          scorer.swap_model(round % 2 == 0 ? model_a : model_b);
          break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  constexpr std::size_t kScorers = 3;
  constexpr std::size_t kPasses = 3;
  std::vector<std::vector<std::vector<core::Prediction>>> answers(kScorers);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kScorers; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (std::size_t i = 0; i < questions.size(); ++i) {
          answers[t].push_back(scorer.score(questions[i], users));
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  stop.store(true);
  mutator.join();

  for (std::size_t t = 0; t < kScorers; ++t) {
    ASSERT_EQ(answers[t].size(), kPasses * questions.size());
    for (std::size_t k = 0; k < answers[t].size(); ++k) {
      const std::size_t i = k % questions.size();
      EXPECT_TRUE(bit_equal(answers[t][k], expect_a[i]) ||
                  bit_equal(answers[t][k], expect_b[i]))
          << "scorer " << t << " answer " << k << " q=" << questions[i];
    }
  }
  EXPECT_GT(scorer.swap_epoch(), 0u);
}

TEST(FeatureCache, HotQuestionSurvivesCapPlusOneMisses) {
  auto& fixture = ServeFixture::instance();
  const std::size_t cap = 3;
  FeatureCache cache(cap);
  cache.sync(fixture.pipeline.extractor(), fixture.dataset,
             fixture.pipeline.generation());
  const forum::QuestionId hot = 0;
  const auto first = cache.question_block(hot);
  for (std::size_t i = 1; i <= cap + 1; ++i) {
    cache.question_block(static_cast<forum::QuestionId>(i));
    EXPECT_EQ(cache.question_block(hot).get(), first.get()) << "miss " << i;
  }
  const FeatureCacheStats stats = cache.stats();
  EXPECT_EQ(stats.question_misses, cap + 2);
  EXPECT_EQ(stats.question_hits, cap + 1);
  // cap + 2 distinct blocks through a cap-sized LRU: exactly two evicted,
  // both cold ones.
  EXPECT_EQ(stats.question_evictions, 2u);
}

TEST(BatchScorer, ValidatesArguments) {
  auto& fixture = ServeFixture::instance();
  core::ForecastPipeline unfitted;
  EXPECT_THROW(BatchScorer scorer(unfitted), util::CheckError);
  BatchScorer scorer(fixture.pipeline);
  EXPECT_TRUE(scorer.score(0, std::vector<forum::UserId>{}).empty());
}

}  // namespace
}  // namespace forumcast::serve
