#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "eval/ranking.hpp"
#include "util/check.hpp"

namespace forumcast::eval {
namespace {

// scores rank items as: idx1 (0.9), idx3 (0.7), idx0 (0.4), idx2 (0.1)
const std::vector<double> kScores = {0.4, 0.9, 0.1, 0.7};
const std::vector<int> kLabels = {1, 0, 0, 1};  // relevant: idx0, idx3

TEST(Ranking, PrecisionAtK) {
  EXPECT_DOUBLE_EQ(precision_at_k(kScores, kLabels, 1), 0.0);  // idx1 not rel
  EXPECT_DOUBLE_EQ(precision_at_k(kScores, kLabels, 2), 0.5);  // idx3 rel
  EXPECT_DOUBLE_EQ(precision_at_k(kScores, kLabels, 3), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(precision_at_k(kScores, kLabels, 4), 0.5);
  // k beyond the list clamps to the list size.
  EXPECT_DOUBLE_EQ(precision_at_k(kScores, kLabels, 100), 0.5);
}

TEST(Ranking, ReciprocalRank) {
  EXPECT_DOUBLE_EQ(reciprocal_rank(kScores, kLabels), 0.5);  // idx3 at rank 2
  const std::vector<int> first = {0, 1, 0, 0};
  EXPECT_DOUBLE_EQ(reciprocal_rank(kScores, first), 1.0);
  const std::vector<int> none = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(reciprocal_rank(kScores, none), 0.0);
}

TEST(Ranking, NdcgPerfectAndWorst) {
  const std::vector<double> scores = {0.9, 0.8, 0.2, 0.1};
  const std::vector<int> perfect = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(ndcg_at_k(scores, perfect, 4), 1.0);
  const std::vector<int> inverted = {0, 0, 1, 1};
  EXPECT_LT(ndcg_at_k(scores, inverted, 4), 1.0);
  EXPECT_GT(ndcg_at_k(scores, inverted, 4), 0.0);
  const std::vector<int> none = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(ndcg_at_k(scores, none, 4), 0.0);
}

TEST(Ranking, NdcgKnownValue) {
  // One relevant item at rank 2 of 2: DCG = 1/log2(3), IDCG = 1.
  const std::vector<double> scores = {0.9, 0.1};
  const std::vector<int> labels = {0, 1};
  EXPECT_NEAR(ndcg_at_k(scores, labels, 2), 1.0 / std::log2(3.0), 1e-12);
}

TEST(Ranking, StableTieBreaking) {
  const std::vector<double> tied = {0.5, 0.5, 0.5};
  const std::vector<int> labels = {1, 0, 0};
  // Stable sort keeps original order, so idx0 leads.
  EXPECT_DOUBLE_EQ(precision_at_k(tied, labels, 1), 1.0);
}

TEST(Ranking, Validation) {
  EXPECT_THROW(precision_at_k({}, {}, 1), util::CheckError);
  EXPECT_THROW(precision_at_k(kScores, kLabels, 0), util::CheckError);
  const std::vector<int> bad = {2, 0, 0, 0};
  EXPECT_THROW(precision_at_k(kScores, bad, 1), util::CheckError);
  const std::vector<int> short_labels = {1};
  EXPECT_THROW(reciprocal_rank(kScores, short_labels), util::CheckError);
}

}  // namespace
}  // namespace forumcast::eval
