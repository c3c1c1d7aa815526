// The question-thread dataset plus the preprocessing of Sec. III-A and the
// windowing helpers (Ω partitions, F(q) inference sets) used in Sec. IV.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "forum/post.hpp"

namespace forumcast::forum {

/// One observed (u, q) pair with a_{u,q} = 1: the prediction targets.
struct AnsweredPair {
  UserId user = 0;
  QuestionId question = 0;
  double delay_hours = 0.0;  ///< r_{u,q} = t(answer) − t(question)
  int votes = 0;             ///< v_{u,q}
};

/// Headline dataset counts (paper Sec. III-A reports these for Stack Overflow).
struct DatasetStats {
  std::size_t questions = 0;
  std::size_t answers = 0;
  std::size_t askers = 0;
  std::size_t answerers = 0;
  std::size_t distinct_users = 0;
  double answer_matrix_density = 0.0;  ///< share of 1s in A over answerers × questions
};

class Dataset {
 public:
  Dataset() = default;

  /// Takes ownership of threads; `num_users` bounds all creator ids.
  Dataset(std::vector<Thread> threads, std::size_t num_users);

  std::size_t num_users() const { return num_users_; }
  std::size_t num_questions() const { return threads_.size(); }
  const std::vector<Thread>& threads() const { return threads_; }
  const Thread& thread(QuestionId q) const;

  /// Applies the paper's preprocessing: drops questions with no answers,
  /// keeps only the highest-voted answer per (user, question), and removes
  /// answers posted at (or before) the question timestamp. Thread ids are
  /// re-assigned contiguously in chronological question order.
  Dataset preprocessed() const;

  /// All (u, q) pairs with a_{u,q} = 1, in thread order.
  std::vector<AnsweredPair> answered_pairs() const;

  /// Answered pairs restricted to the given question ids.
  std::vector<AnsweredPair> answered_pairs(std::span<const QuestionId> questions) const;

  DatasetStats stats() const;

  /// Question ids whose question timestamp lies in day ∈ [first_day, last_day]
  /// (1-based days of the 30-day collection window, inclusive).
  std::vector<QuestionId> questions_in_days(int first_day, int last_day) const;

  /// Timestamp of the last post anywhere in the dataset (the paper's T).
  double last_post_time() const;

  // --- Streaming mutation API (src/stream/) ---
  // The live ingestion path grows a dataset in place instead of rebuilding
  // it. Mutators preserve every constructor invariant (creator bounds,
  // answers sorted by timestamp) so readers holding a reference — the
  // extractor, the pipeline — always observe a valid snapshot. They do NOT
  // re-id or re-sort threads: new questions take the next contiguous id.

  /// Appends a new question thread (no answers yet) and returns its id.
  QuestionId append_thread(Post question);

  /// Appends an answer to thread `q`; the timestamp must not precede the
  /// question's or the thread's last answer (streaming events arrive in
  /// time order). Returns the answer's index within the thread.
  std::size_t append_answer(QuestionId q, Post answer);

  /// Applies a vote delta to the question post (`answer_index` < 0) or to
  /// the answer at `answer_index`.
  void apply_vote(QuestionId q, int answer_index, int delta);

 private:
  std::vector<Thread> threads_;
  std::size_t num_users_ = 0;
};

}  // namespace forumcast::forum
