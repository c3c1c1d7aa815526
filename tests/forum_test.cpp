#include <gtest/gtest.h>

#include <vector>

#include "forum/dataset.hpp"
#include "forum/sln.hpp"
#include "util/check.hpp"

namespace forumcast::forum {
namespace {

Post make_post(UserId user, double t, int votes, std::string body = "<p>x</p>") {
  Post post;
  post.creator = user;
  post.timestamp_hours = t;
  post.net_votes = votes;
  post.body_html = std::move(body);
  return post;
}

Thread make_thread(UserId asker, double t, std::vector<Post> answers) {
  Thread thread;
  thread.question = make_post(asker, t, 1);
  thread.answers = std::move(answers);
  return thread;
}

// A small forum: user 0 asks q0 (answered by 1, 2), user 1 asks q1
// (answered by 2), user 3 asks q2 (unanswered).
Dataset small_dataset() {
  std::vector<Thread> threads;
  threads.push_back(make_thread(0, 0.0, {make_post(1, 1.0, 3), make_post(2, 2.0, 1)}));
  threads.push_back(make_thread(1, 10.0, {make_post(2, 12.5, 5)}));
  threads.push_back(make_thread(3, 20.0, {}));
  return Dataset(std::move(threads), 4);
}

// ---------- Dataset basics ----------

TEST(Dataset, ThreadsGetSequentialIds) {
  const Dataset data = small_dataset();
  EXPECT_EQ(data.num_questions(), 3u);
  EXPECT_EQ(data.thread(0).id, 0u);
  EXPECT_EQ(data.thread(2).id, 2u);
  EXPECT_THROW(data.thread(3), util::CheckError);
}

TEST(Dataset, AnswersSortedByTime) {
  std::vector<Thread> threads;
  threads.push_back(make_thread(0, 0.0, {make_post(1, 5.0, 0), make_post(2, 2.0, 0)}));
  const Dataset data(std::move(threads), 3);
  EXPECT_EQ(data.thread(0).answers[0].creator, 2u);
  EXPECT_EQ(data.thread(0).answers[1].creator, 1u);
}

TEST(Dataset, CreatorOutOfRangeThrows) {
  std::vector<Thread> threads;
  threads.push_back(make_thread(5, 0.0, {}));
  EXPECT_THROW(Dataset(std::move(threads), 3), util::CheckError);
}

TEST(Dataset, AnsweredPairsExtractTargets) {
  const Dataset data = small_dataset();
  const auto pairs = data.answered_pairs();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].user, 1u);
  EXPECT_DOUBLE_EQ(pairs[0].delay_hours, 1.0);
  EXPECT_EQ(pairs[0].votes, 3);
  EXPECT_EQ(pairs[2].user, 2u);
  EXPECT_DOUBLE_EQ(pairs[2].delay_hours, 2.5);
}

TEST(Dataset, AnsweredPairsRestrictedToQuestions) {
  const Dataset data = small_dataset();
  const std::vector<QuestionId> only_q1 = {1};
  const auto pairs = data.answered_pairs(only_q1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].question, 1u);
}

TEST(Dataset, StatsCountsDistinctRoles) {
  const Dataset data = small_dataset();
  const auto stats = data.stats();
  EXPECT_EQ(stats.questions, 3u);
  EXPECT_EQ(stats.answers, 3u);
  EXPECT_EQ(stats.askers, 3u);     // users 0, 1, 3
  EXPECT_EQ(stats.answerers, 2u);  // users 1, 2
  EXPECT_EQ(stats.distinct_users, 4u);
  EXPECT_NEAR(stats.answer_matrix_density, 3.0 / (2.0 * 3.0), 1e-12);
}

// ---------- preprocessing (paper Sec. III-A) ----------

TEST(Dataset, PreprocessDropsUnansweredQuestions) {
  const Dataset cleaned = small_dataset().preprocessed();
  EXPECT_EQ(cleaned.num_questions(), 2u);  // q2 dropped
}

TEST(Dataset, PreprocessKeepsHighestVotedDuplicateAnswer) {
  std::vector<Thread> threads;
  threads.push_back(make_thread(
      0, 0.0, {make_post(1, 1.0, 2), make_post(1, 3.0, 7), make_post(2, 2.0, 0)}));
  const Dataset cleaned = Dataset(std::move(threads), 3).preprocessed();
  const auto& answers = cleaned.thread(0).answers;
  ASSERT_EQ(answers.size(), 2u);
  // User 1 keeps only the 7-vote answer.
  int user1_votes = -100;
  for (const auto& a : answers) {
    if (a.creator == 1) user1_votes = a.net_votes;
  }
  EXPECT_EQ(user1_votes, 7);
}

TEST(Dataset, PreprocessDropsSimultaneousAnswers) {
  std::vector<Thread> threads;
  threads.push_back(make_thread(0, 5.0, {make_post(1, 5.0, 3), make_post(2, 6.0, 1)}));
  const Dataset cleaned = Dataset(std::move(threads), 3).preprocessed();
  ASSERT_EQ(cleaned.thread(0).answers.size(), 1u);
  EXPECT_EQ(cleaned.thread(0).answers[0].creator, 2u);
}

TEST(Dataset, PreprocessDropsQuestionWhoseOnlyAnswerWasSimultaneous) {
  std::vector<Thread> threads;
  threads.push_back(make_thread(0, 5.0, {make_post(1, 5.0, 3)}));
  const Dataset cleaned = Dataset(std::move(threads), 2).preprocessed();
  EXPECT_EQ(cleaned.num_questions(), 0u);
}

TEST(Dataset, PreprocessAllUnansweredYieldsEmptyDataset) {
  std::vector<Thread> threads;
  threads.push_back(make_thread(0, 1.0, {}));
  threads.push_back(make_thread(1, 2.0, {}));
  threads.push_back(make_thread(2, 3.0, {}));
  const Dataset cleaned = Dataset(std::move(threads), 3).preprocessed();
  EXPECT_EQ(cleaned.num_questions(), 0u);
  EXPECT_EQ(cleaned.answered_pairs().size(), 0u);
  const auto stats = cleaned.stats();
  EXPECT_EQ(stats.questions, 0u);
  EXPECT_EQ(stats.answers, 0u);
  EXPECT_DOUBLE_EQ(stats.answer_matrix_density, 0.0);
}

TEST(Dataset, PreprocessTiedDuplicateAnswerVotesKeepsEarliest) {
  // User 1 answers twice with identical votes: the strict > comparison keeps
  // the first (earliest, answers being time-sorted) of the tie.
  std::vector<Thread> threads;
  threads.push_back(make_thread(
      0, 0.0, {make_post(1, 1.0, 4), make_post(1, 3.0, 4), make_post(2, 2.0, 0)}));
  const Dataset cleaned = Dataset(std::move(threads), 3).preprocessed();
  ASSERT_EQ(cleaned.thread(0).answers.size(), 2u);
  const auto pairs = cleaned.answered_pairs();
  for (const auto& pair : pairs) {
    if (pair.user == 1) {
      EXPECT_DOUBLE_EQ(pair.delay_hours, 1.0);
      EXPECT_EQ(pair.votes, 4);
    }
  }
}

TEST(Dataset, PreprocessSimultaneousAnswerLosesToLaterDuplicate) {
  // The same user's answer at exactly the question timestamp is dropped
  // before duplicate resolution, so their later (lower-voted) answer wins.
  std::vector<Thread> threads;
  threads.push_back(make_thread(0, 5.0, {make_post(1, 5.0, 9), make_post(1, 6.0, 1)}));
  const Dataset cleaned = Dataset(std::move(threads), 2).preprocessed();
  ASSERT_EQ(cleaned.num_questions(), 1u);
  ASSERT_EQ(cleaned.thread(0).answers.size(), 1u);
  EXPECT_DOUBLE_EQ(cleaned.thread(0).answers[0].timestamp_hours, 6.0);
  EXPECT_EQ(cleaned.thread(0).answers[0].net_votes, 1);
}

// ---------- streaming mutators ----------

TEST(Dataset, AppendThreadAssignsNextContiguousId) {
  Dataset data = small_dataset();
  const QuestionId q = data.append_thread(make_post(2, 30.0, 0));
  EXPECT_EQ(q, 3u);
  EXPECT_EQ(data.num_questions(), 4u);
  EXPECT_EQ(data.thread(q).id, q);
  EXPECT_TRUE(data.thread(q).answers.empty());
  EXPECT_THROW(data.append_thread(make_post(99, 31.0, 0)), util::CheckError);
}

TEST(Dataset, AppendAnswerEnforcesTimeOrder) {
  Dataset data = small_dataset();
  EXPECT_EQ(data.append_answer(1, make_post(0, 13.0, 0)), 1u);
  EXPECT_EQ(data.thread(1).answers.size(), 2u);
  // Before the thread's last answer → rejected; before the question → too.
  EXPECT_THROW(data.append_answer(1, make_post(3, 12.9, 0)), util::CheckError);
  EXPECT_THROW(data.append_answer(2, make_post(0, 19.0, 0)), util::CheckError);
  // Exactly at the last answer's timestamp is allowed (ties are valid).
  EXPECT_EQ(data.append_answer(1, make_post(3, 13.0, 0)), 2u);
}

TEST(Dataset, ApplyVoteTargetsQuestionOrAnswer) {
  Dataset data = small_dataset();
  const int question_votes = data.thread(0).question.net_votes;
  data.apply_vote(0, -1, 2);
  EXPECT_EQ(data.thread(0).question.net_votes, question_votes + 2);
  data.apply_vote(0, 1, -1);
  EXPECT_EQ(data.thread(0).answers[1].net_votes, 0);
  EXPECT_THROW(data.apply_vote(0, 7, 1), util::CheckError);
  EXPECT_THROW(data.apply_vote(9, -1, 1), util::CheckError);
}

TEST(Dataset, PreprocessOrdersChronologically) {
  std::vector<Thread> threads;
  threads.push_back(make_thread(0, 50.0, {make_post(1, 51.0, 0)}));
  threads.push_back(make_thread(1, 10.0, {make_post(0, 11.0, 0)}));
  const Dataset cleaned = Dataset(std::move(threads), 2).preprocessed();
  EXPECT_DOUBLE_EQ(cleaned.thread(0).question.timestamp_hours, 10.0);
  EXPECT_DOUBLE_EQ(cleaned.thread(1).question.timestamp_hours, 50.0);
}

// ---------- windows ----------

TEST(Dataset, QuestionsInDays) {
  std::vector<Thread> threads;
  threads.push_back(make_thread(0, 0.0, {}));     // day 1
  threads.push_back(make_thread(0, 23.9, {}));    // day 1
  threads.push_back(make_thread(0, 24.0, {}));    // day 2
  threads.push_back(make_thread(0, 100.0, {}));   // day 5
  const Dataset data(std::move(threads), 1);
  EXPECT_EQ(data.questions_in_days(1, 1).size(), 2u);
  EXPECT_EQ(data.questions_in_days(2, 2).size(), 1u);
  EXPECT_EQ(data.questions_in_days(1, 5).size(), 4u);
  EXPECT_EQ(data.questions_in_days(3, 4).size(), 0u);
  EXPECT_THROW(data.questions_in_days(2, 1), util::CheckError);
}

TEST(Dataset, LastPostTimeIncludesAnswers) {
  const Dataset data = small_dataset();
  EXPECT_DOUBLE_EQ(data.last_post_time(), 20.0);  // q2 question at t=20
}

// ---------- SLN graphs ----------

TEST(Sln, QaGraphLinksAskerToAnswerers) {
  const Dataset data = small_dataset();
  const std::vector<QuestionId> all = {0, 1, 2};
  const auto g = build_qa_graph(data, all);
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));  // q0: asker 0, answerer 1
  EXPECT_TRUE(g.has_edge(0, 2));  // q0: asker 0, answerer 2
  EXPECT_TRUE(g.has_edge(1, 2));  // q1: asker 1, answerer 2
  EXPECT_EQ(g.degree(3), 0u);     // unanswered asker stays isolated
}

TEST(Sln, DenseGraphAddsAnswererAnswererLinks) {
  std::vector<Thread> threads;
  threads.push_back(make_thread(0, 0.0, {make_post(1, 1.0, 0), make_post(2, 2.0, 0)}));
  const Dataset data(std::move(threads), 3);
  const std::vector<QuestionId> all = {0};
  const auto qa = build_qa_graph(data, all);
  const auto dense = build_dense_graph(data, all);
  EXPECT_FALSE(qa.has_edge(1, 2));
  EXPECT_TRUE(dense.has_edge(1, 2));
  EXPECT_EQ(dense.edge_count(), 3u);  // triangle
}

TEST(Sln, WindowRestrictsEdges) {
  const Dataset data = small_dataset();
  const std::vector<QuestionId> only_q1 = {1};
  const auto g = build_qa_graph(data, only_q1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(Sln, DenseGraphIsAlwaysAtLeastAsDenseAsQa) {
  const Dataset data = small_dataset();
  const std::vector<QuestionId> all = {0, 1, 2};
  const auto qa = build_qa_graph(data, all);
  const auto dense = build_dense_graph(data, all);
  EXPECT_GE(dense.edge_count(), qa.edge_count());
  EXPECT_GE(dense.average_degree(), qa.average_degree());
}

}  // namespace
}  // namespace forumcast::forum
