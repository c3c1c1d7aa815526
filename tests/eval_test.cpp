#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "eval/crossval.hpp"
#include "eval/metrics.hpp"
#include "eval/sampling.hpp"
#include "forum/generator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::eval {
namespace {

// ---------- AUC ----------

TEST(Metrics, AucPerfectRankingIsOne) {
  const std::vector<double> scores = {0.1, 0.2, 0.8, 0.9};
  const std::vector<int> labels = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(auc(scores, labels), 1.0);
}

TEST(Metrics, AucInvertedRankingIsZero) {
  const std::vector<double> scores = {0.9, 0.8, 0.1, 0.2};
  const std::vector<int> labels = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(auc(scores, labels), 0.0);
}

TEST(Metrics, AucAllTiedIsHalf) {
  const std::vector<double> scores = {0.5, 0.5, 0.5, 0.5};
  const std::vector<int> labels = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(auc(scores, labels), 0.5);
}

TEST(Metrics, AucRandomScoresNearHalf) {
  util::Rng rng(3);
  std::vector<double> scores(20000);
  std::vector<int> labels(20000);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = rng.uniform();
    labels[i] = rng.bernoulli(0.5) ? 1 : 0;
  }
  EXPECT_NEAR(auc(scores, labels), 0.5, 0.02);
}

TEST(Metrics, AucIsRankInvariant) {
  // Monotone transform of scores must not change AUC.
  const std::vector<double> scores = {0.1, 0.4, 0.35, 0.8};
  std::vector<double> transformed;
  for (double s : scores) transformed.push_back(s * s * 100.0);
  const std::vector<int> labels = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(auc(scores, labels), auc(transformed, labels));
}

TEST(Metrics, AucKnownPartialValue) {
  // scores: pos {0.8, 0.3}, neg {0.5, 0.1}: pairs won = (0.8>0.5)+(0.8>0.1)
  // +(0.3<0.5 → 0)+(0.3>0.1) = 3 of 4.
  const std::vector<double> scores = {0.8, 0.3, 0.5, 0.1};
  const std::vector<int> labels = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(auc(scores, labels), 0.75);
}

TEST(Metrics, AucRequiresBothClasses) {
  const std::vector<double> scores = {0.1, 0.9};
  const std::vector<int> ones = {1, 1};
  EXPECT_THROW(auc(scores, ones), util::CheckError);
  const std::vector<int> bad = {0, 2};
  EXPECT_THROW(auc(scores, bad), util::CheckError);
}

// ---------- RMSE / MAE / improvement ----------

TEST(Metrics, RmseKnownValue) {
  const std::vector<double> pred = {1.0, 2.0, 3.0};
  const std::vector<double> target = {1.0, 4.0, 1.0};
  // errors 0, −2, 2 → rmse = sqrt(8/3)
  EXPECT_NEAR(rmse(pred, target), std::sqrt(8.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(rmse(pred, pred), 0.0);
  EXPECT_THROW(rmse(pred, std::vector<double>{1.0}), util::CheckError);
}

TEST(Metrics, ImprovementOrientation) {
  // Lower RMSE is better.
  EXPECT_NEAR(improvement_percent(2.0, 1.5, false), 25.0, 1e-12);
  // Higher AUC is better.
  EXPECT_NEAR(improvement_percent(0.70, 0.86, true), 22.857, 1e-2);
  EXPECT_LT(improvement_percent(1.0, 1.2, false), 0.0);
}

// ---------- stratified k-fold ----------

std::vector<forum::AnsweredPair> synthetic_pairs(std::size_t users,
                                                 std::size_t per_user) {
  std::vector<forum::AnsweredPair> pairs;
  forum::QuestionId q = 0;
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t i = 0; i < per_user; ++i) {
      pairs.push_back({static_cast<forum::UserId>(u), q++, 1.0, 0});
    }
  }
  return pairs;
}

TEST(CrossVal, SplitsArePartitions) {
  const auto pairs = synthetic_pairs(20, 5);
  const auto splits = stratified_kfold(pairs, 5, 1, 42);
  ASSERT_EQ(splits.size(), 5u);
  for (const auto& split : splits) {
    EXPECT_EQ(split.train_indices.size() + split.test_indices.size(),
              pairs.size());
    std::set<std::size_t> train(split.train_indices.begin(),
                                split.train_indices.end());
    for (std::size_t idx : split.test_indices) {
      EXPECT_FALSE(train.contains(idx));
    }
  }
  // Every index appears in exactly one test fold.
  std::vector<int> seen(pairs.size(), 0);
  for (const auto& split : splits) {
    for (std::size_t idx : split.test_indices) ++seen[idx];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(CrossVal, StratifiesByUser) {
  // 5 pairs per user over 5 folds → exactly one pair per user per fold.
  const auto pairs = synthetic_pairs(10, 5);
  const auto splits = stratified_kfold(pairs, 5, 1, 7);
  for (const auto& split : splits) {
    std::vector<int> per_user(10, 0);
    for (std::size_t idx : split.test_indices) ++per_user[pairs[idx].user];
    for (int count : per_user) EXPECT_EQ(count, 1);
  }
}

TEST(CrossVal, UnevenUsersSpreadWithinOne) {
  const auto pairs = synthetic_pairs(6, 7);  // 7 pairs over 5 folds: 1 or 2
  const auto splits = stratified_kfold(pairs, 5, 1, 11);
  for (const auto& split : splits) {
    std::vector<int> per_user(6, 0);
    for (std::size_t idx : split.test_indices) ++per_user[pairs[idx].user];
    for (int count : per_user) {
      EXPECT_GE(count, 1);
      EXPECT_LE(count, 2);
    }
  }
}

TEST(CrossVal, RepeatsProduceDistinctShuffles) {
  const auto pairs = synthetic_pairs(15, 4);
  const auto splits = stratified_kfold(pairs, 5, 2, 13);
  ASSERT_EQ(splits.size(), 10u);
  // The first fold of each repeat should differ (with overwhelming probability).
  EXPECT_NE(splits[0].test_indices, splits[5].test_indices);
}

TEST(CrossVal, DeterministicForSeed) {
  const auto pairs = synthetic_pairs(12, 3);
  const auto a = stratified_kfold(pairs, 4, 2, 99);
  const auto b = stratified_kfold(pairs, 4, 2, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].test_indices, b[i].test_indices);
  }
}

TEST(CrossVal, ValidatesArguments) {
  const auto pairs = synthetic_pairs(2, 1);
  EXPECT_THROW(stratified_kfold(pairs, 1, 1, 0), util::CheckError);
  EXPECT_THROW(stratified_kfold(pairs, 5, 0, 0), util::CheckError);
  EXPECT_THROW(stratified_kfold(pairs, 5, 1, 0), util::CheckError);  // too few
}

// ---------- negative sampling ----------

TEST(Sampling, NegativesAreTrueNegatives) {
  forum::GeneratorConfig config;
  config.num_users = 120;
  config.num_questions = 80;
  config.seed = 55;
  const auto clean = forum::generate_forum(config).dataset.preprocessed();
  std::vector<forum::QuestionId> all(clean.num_questions());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<forum::QuestionId>(i);
  }
  const auto negatives = sample_negative_pairs(clean, all, 300, 17);
  EXPECT_EQ(negatives.size(), 300u);
  for (const auto& pair : negatives) {
    const auto& thread = clean.thread(pair.question);
    EXPECT_NE(pair.user, thread.question.creator);
    for (const auto& answer : thread.answers) {
      EXPECT_NE(pair.user, answer.creator);
    }
  }
}

TEST(Sampling, NegativesSpreadAcrossQuestions) {
  forum::GeneratorConfig config;
  config.num_users = 120;
  config.num_questions = 80;
  config.seed = 56;
  const auto clean = forum::generate_forum(config).dataset.preprocessed();
  std::vector<forum::QuestionId> all(clean.num_questions());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<forum::QuestionId>(i);
  }
  const std::size_t count = all.size() * 4;
  const auto negatives = sample_negative_pairs(clean, all, count, 18);
  std::vector<int> per_question(clean.num_questions(), 0);
  for (const auto& pair : negatives) ++per_question[pair.question];
  // Round-robin spread: every question gets at least one negative.
  for (forum::QuestionId q = 0; q < clean.num_questions(); ++q) {
    EXPECT_GE(per_question[q], 1) << "question " << q;
  }
}

TEST(Sampling, DeterministicForSeed) {
  forum::GeneratorConfig config;
  config.num_users = 60;
  config.num_questions = 40;
  config.seed = 57;
  const auto clean = forum::generate_forum(config).dataset.preprocessed();
  std::vector<forum::QuestionId> all(clean.num_questions());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<forum::QuestionId>(i);
  }
  const auto a = sample_negative_pairs(clean, all, 50, 3);
  const auto b = sample_negative_pairs(clean, all, 50, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].question, b[i].question);
  }
}

}  // namespace
}  // namespace forumcast::eval
