#include "forum/dataset.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/check.hpp"

namespace forumcast::forum {

Dataset::Dataset(std::vector<Thread> threads, std::size_t num_users)
    : threads_(std::move(threads)), num_users_(num_users) {
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    auto& thread = threads_[i];
    thread.id = static_cast<QuestionId>(i);
    FORUMCAST_CHECK(thread.question.creator < num_users_);
    for (const auto& answer : thread.answers) {
      FORUMCAST_CHECK(answer.creator < num_users_);
    }
    std::sort(thread.answers.begin(), thread.answers.end(),
              [](const Post& a, const Post& b) {
                return a.timestamp_hours < b.timestamp_hours;
              });
  }
}

const Thread& Dataset::thread(QuestionId q) const {
  FORUMCAST_CHECK(q < threads_.size());
  return threads_[q];
}

Dataset Dataset::preprocessed() const {
  std::vector<Thread> kept;
  kept.reserve(threads_.size());
  for (const auto& thread : threads_) {
    Thread cleaned;
    cleaned.question = thread.question;
    // Highest-voted answer per user; simultaneous-with-question answers drop.
    std::unordered_map<UserId, const Post*> best;
    for (const auto& answer : thread.answers) {
      if (answer.timestamp_hours <= thread.question.timestamp_hours) continue;
      auto [it, inserted] = best.emplace(answer.creator, &answer);
      if (!inserted && answer.net_votes > it->second->net_votes) {
        it->second = &answer;
      }
    }
    if (best.empty()) continue;  // question never answered
    for (const auto& [user, post] : best) cleaned.answers.push_back(*post);
    std::sort(cleaned.answers.begin(), cleaned.answers.end(),
              [](const Post& a, const Post& b) {
                return a.timestamp_hours < b.timestamp_hours;
              });
    kept.push_back(std::move(cleaned));
  }
  std::sort(kept.begin(), kept.end(), [](const Thread& a, const Thread& b) {
    return a.question.timestamp_hours < b.question.timestamp_hours;
  });
  return Dataset(std::move(kept), num_users_);
}

std::vector<AnsweredPair> Dataset::answered_pairs() const {
  std::vector<AnsweredPair> pairs;
  for (const auto& thread : threads_) {
    for (const auto& answer : thread.answers) {
      pairs.push_back({answer.creator, thread.id,
                       answer.timestamp_hours - thread.question.timestamp_hours,
                       answer.net_votes});
    }
  }
  return pairs;
}

std::vector<AnsweredPair> Dataset::answered_pairs(
    std::span<const QuestionId> questions) const {
  std::vector<AnsweredPair> pairs;
  for (QuestionId q : questions) {
    const Thread& thread = this->thread(q);
    for (const auto& answer : thread.answers) {
      pairs.push_back({answer.creator, thread.id,
                       answer.timestamp_hours - thread.question.timestamp_hours,
                       answer.net_votes});
    }
  }
  return pairs;
}

DatasetStats Dataset::stats() const {
  DatasetStats stats;
  std::unordered_set<UserId> askers, answerers, all;
  std::size_t answers = 0;
  for (const auto& thread : threads_) {
    askers.insert(thread.question.creator);
    all.insert(thread.question.creator);
    for (const auto& answer : thread.answers) {
      answerers.insert(answer.creator);
      all.insert(answer.creator);
      ++answers;
    }
  }
  stats.questions = threads_.size();
  stats.answers = answers;
  stats.askers = askers.size();
  stats.answerers = answerers.size();
  stats.distinct_users = all.size();
  const double cells = static_cast<double>(answerers.size()) *
                       static_cast<double>(threads_.size());
  stats.answer_matrix_density = cells > 0.0 ? static_cast<double>(answers) / cells : 0.0;
  return stats;
}

std::vector<QuestionId> Dataset::questions_in_days(int first_day, int last_day) const {
  FORUMCAST_CHECK(first_day >= 1 && first_day <= last_day);
  const double lo = static_cast<double>(first_day - 1) * 24.0;
  const double hi = static_cast<double>(last_day) * 24.0;
  std::vector<QuestionId> selected;
  for (const auto& thread : threads_) {
    const double t = thread.question.timestamp_hours;
    if (t >= lo && t < hi) selected.push_back(thread.id);
  }
  return selected;
}

QuestionId Dataset::append_thread(Post question) {
  FORUMCAST_CHECK(question.creator < num_users_);
  Thread thread;
  thread.id = static_cast<QuestionId>(threads_.size());
  thread.question = std::move(question);
  threads_.push_back(std::move(thread));
  return threads_.back().id;
}

std::size_t Dataset::append_answer(QuestionId q, Post answer) {
  FORUMCAST_CHECK(q < threads_.size());
  FORUMCAST_CHECK(answer.creator < num_users_);
  Thread& thread = threads_[q];
  FORUMCAST_CHECK_MSG(
      answer.timestamp_hours >= thread.question.timestamp_hours,
      "streamed answer precedes its question");
  FORUMCAST_CHECK_MSG(thread.answers.empty() ||
                          answer.timestamp_hours >=
                              thread.answers.back().timestamp_hours,
                      "streamed answer out of time order");
  thread.answers.push_back(std::move(answer));
  return thread.answers.size() - 1;
}

void Dataset::apply_vote(QuestionId q, int answer_index, int delta) {
  FORUMCAST_CHECK(q < threads_.size());
  Thread& thread = threads_[q];
  if (answer_index < 0) {
    thread.question.net_votes += delta;
    return;
  }
  FORUMCAST_CHECK(static_cast<std::size_t>(answer_index) < thread.answers.size());
  thread.answers[static_cast<std::size_t>(answer_index)].net_votes += delta;
}

double Dataset::last_post_time() const {
  double last = 0.0;
  for (const auto& thread : threads_) {
    last = std::max(last, thread.question.timestamp_hours);
    for (const auto& answer : thread.answers) {
      last = std::max(last, answer.timestamp_hours);
    }
  }
  return last;
}

}  // namespace forumcast::forum
