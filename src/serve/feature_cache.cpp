#include "serve/feature_cache.hpp"

#include <algorithm>

#include "graph/link_features.hpp"
#include "obs/obs.hpp"
#include "topics/topic_math.hpp"
#include "util/check.hpp"

namespace forumcast::serve {

namespace {
// Scalar slots of a user block; the K entries of d_u follow.
enum UserSlot : std::size_t {
  kAnswersProvided = 0,
  kAnswerRatio,
  kNetAnswerVotes,
  kMedianResponseTime,
  kQaCloseness,
  kQaBetweenness,
  kDenseCloseness,
  kDenseBetweenness,
  kUserScalarSlots,
};

void fill_user_row(const features::FeatureExtractor& extractor,
                   forum::UserId u, double* row) {
  const auto& stats = extractor.user_stats(u);
  row[kAnswersProvided] = static_cast<double>(stats.answers_provided);
  row[kAnswerRatio] = static_cast<double>(stats.answers_provided) /
                      (1.0 + static_cast<double>(stats.questions_asked));
  row[kNetAnswerVotes] = stats.net_answer_votes;
  row[kMedianResponseTime] = extractor.median_response_time(u);
  row[kQaCloseness] = extractor.qa_closeness()[u];
  row[kQaBetweenness] = extractor.qa_betweenness()[u];
  row[kDenseCloseness] = extractor.dense_closeness()[u];
  row[kDenseBetweenness] = extractor.dense_betweenness()[u];
  for (std::size_t k = 0; k < extractor.num_topics(); ++k) {
    row[kUserScalarSlots + k] = stats.topic_distribution[k];
  }
}

}  // namespace

FeatureCache::FeatureCache(std::size_t max_cached_questions)
    : max_cached_questions_(std::max<std::size_t>(1, max_cached_questions)) {}

std::size_t FeatureCache::dimension() const {
  FORUMCAST_CHECK(bound_);
  return extractor_->dimension();
}

std::shared_ptr<const FeatureCache::UserTable> FeatureCache::build_user_table()
    const {
  auto table = std::make_shared<UserTable>();
  table->extractor_ = extractor_;
  table->stride_ = kUserScalarSlots + extractor_->num_topics();
  table->rows_.resize(dataset_->num_users() * table->stride_);
  for (forum::UserId u = 0; u < dataset_->num_users(); ++u) {
    fill_user_row(*extractor_, u, table->rows_.data() + u * table->stride_);
  }
  return table;
}

std::uint64_t FeatureCache::reset() {
  const std::uint64_t dropped =
      static_cast<std::uint64_t>(
          std::count(user_seen_.begin(), user_seen_.end(), 1)) +
      lru_.size();
  index_.clear();
  lru_.clear();
  user_seen_.assign(dataset_->num_users(), 0);
  users_ = build_user_table();
  return dropped;
}

void FeatureCache::sync(const features::FeatureExtractor& extractor,
                        const forum::Dataset& dataset,
                        std::uint64_t generation) {
  if (bound_ && generation == generation_ && extractor_ == &extractor) return;
  const bool rebind = bound_;
  extractor_ = &extractor;
  dataset_ = &dataset;
  generation_ = generation;
  bound_ = true;
  ++version_;
  const std::uint64_t dropped = reset();
  if (rebind) {
    ++stats_.invalidations;
    stats_.blocks_dropped += dropped;
    FORUMCAST_COUNTER_ADD("serve.cache.invalidations", 1);
    FORUMCAST_COUNTER_ADD("serve.cache.blocks_dropped", dropped);
  }
}

void FeatureCache::warm_users(std::span<const forum::UserId> users) {
  FORUMCAST_CHECK(bound_);
  std::uint64_t hits = 0, misses = 0;
  for (forum::UserId u : users) {
    FORUMCAST_CHECK(u < user_seen_.size());
    if (user_seen_[u]) {
      ++hits;
    } else {
      ++misses;
      user_seen_[u] = 1;
    }
  }
  stats_.user_hits += hits;
  stats_.user_misses += misses;
  FORUMCAST_COUNTER_ADD("serve.cache.user_hits", hits);
  FORUMCAST_COUNTER_ADD("serve.cache.user_misses", misses);
}

std::shared_ptr<const FeatureCache::QuestionBlock> FeatureCache::question_block(
    forum::QuestionId q) {
  if (auto hit = find_question(q)) return hit;
  return publish_question(build_question(*extractor_, *dataset_, q));
}

std::shared_ptr<const FeatureCache::QuestionBlock> FeatureCache::find_question(
    forum::QuestionId q) {
  FORUMCAST_CHECK(bound_);
  const auto it = index_.find(q);
  if (it == index_.end()) {
    ++stats_.question_misses;
    FORUMCAST_COUNTER_ADD("serve.cache.question_misses", 1);
    return nullptr;
  }
  ++stats_.question_hits;
  FORUMCAST_COUNTER_ADD("serve.cache.question_hits", 1);
  lru_.splice(lru_.begin(), lru_, it->second);
  return *it->second;
}

std::shared_ptr<const FeatureCache::QuestionBlock>
FeatureCache::publish_question(std::shared_ptr<const QuestionBlock> block) {
  FORUMCAST_CHECK(bound_ && block != nullptr);
  if (const auto it = index_.find(block->question); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return *it->second;
  }
  if (lru_.size() >= max_cached_questions_) {
    index_.erase(lru_.back()->question);
    lru_.pop_back();
    ++stats_.question_evictions;
    FORUMCAST_COUNTER_ADD("serve.cache.question_evictions", 1);
  }
  lru_.push_front(std::move(block));
  index_.emplace(lru_.front()->question, lru_.begin());
  return lru_.front();
}

std::shared_ptr<const FeatureCache::QuestionBlock> FeatureCache::build_question(
    const features::FeatureExtractor& extractor, const forum::Dataset& dataset,
    forum::QuestionId q) const {
  auto block = std::make_shared<QuestionBlock>();
  const forum::Thread& thread = dataset.thread(q);
  block->question = q;
  block->asker = thread.question.creator;
  block->net_votes = static_cast<double>(thread.question.net_votes);
  block->word_length = extractor.question_word_length(q);
  block->code_length = extractor.question_code_length(q);
  block->topics = extractor.question_topics(q);
  const auto& asker_stats = extractor.user_stats(block->asker);
  block->asker_topics = asker_stats.topic_distribution;
  block->asker_in_thread = std::binary_search(
      asker_stats.participated.begin(), asker_stats.participated.end(), q);
  // Similarity of every dataset question's topic mix against d_q: the
  // TopicWeighted* pair features only ever look these up, so one O(Q·K) pass
  // here replaces an O(K) recomputation per (answered question, candidate).
  const std::size_t num_questions = dataset.num_questions();
  block->similarity.resize(num_questions);
  for (forum::QuestionId r = 0; r < num_questions; ++r) {
    block->similarity[r] = topics::total_variation_similarity(
        extractor.question_topics(r), block->topics);
  }
  return block;
}

void FeatureCache::invalidate(const CacheInvalidation& invalidation) {
  if (!bound_) return;
  ++stats_.invalidations;
  ++version_;
  FORUMCAST_COUNTER_ADD("serve.cache.invalidations", 1);
  std::uint64_t dropped = 0;

  if (invalidation.drop_all) {
    dropped = reset();
    stats_.blocks_dropped += dropped;
    FORUMCAST_COUNTER_ADD("serve.cache.blocks_dropped", dropped);
    return;
  }

  std::vector<forum::UserId> users = invalidation.users;
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
  std::vector<forum::QuestionId> questions = invalidation.questions;
  std::sort(questions.begin(), questions.end());

  // Question blocks: drop the listed questions and anything asked by a
  // pair-dirty user (the asker's topic profile / participation feeds whole
  // columns); grow survivors' similarity tables copy-on-write — concurrent
  // scorers may still hold the old shared_ptr, which stays intact.
  const std::size_t num_questions = dataset_->num_questions();
  for (auto it = lru_.begin(); it != lru_.end();) {
    const QuestionBlock& old_block = **it;
    if (std::binary_search(questions.begin(), questions.end(),
                           old_block.question) ||
        std::binary_search(users.begin(), users.end(), old_block.asker)) {
      ++dropped;
      index_.erase(old_block.question);
      it = lru_.erase(it);
      continue;
    }
    if (old_block.similarity.size() < num_questions) {
      auto fresh = std::make_shared<QuestionBlock>(old_block);
      const auto old_size =
          static_cast<forum::QuestionId>(fresh->similarity.size());
      fresh->similarity.resize(num_questions);
      for (forum::QuestionId r = old_size; r < num_questions; ++r) {
        fresh->similarity[r] = topics::total_variation_similarity(
            extractor_->question_topics(r), fresh->topics);
      }
      *it = std::move(fresh);
    }
    ++it;
  }

  // User rows: rebuilt in a copy of the table, so scorers that snapshotted
  // the old one finish on it. A user requested since its row's last build
  // counts as a dropped block, and its next request as a miss again.
  const std::size_t num_users = user_seen_.size();
  std::shared_ptr<UserTable> table;
  auto refresh = [&](forum::UserId u) {
    if (u >= num_users) return;
    if (!table) table = std::make_shared<UserTable>(*users_);
    fill_user_row(*extractor_, u, table->rows_.data() + u * table->stride_);
    if (user_seen_[u]) {
      user_seen_[u] = 0;
      ++dropped;
    }
  };
  for (const forum::UserId u : users) refresh(u);
  for (const forum::UserId u : invalidation.scalar_users) refresh(u);
  if (table) users_ = std::move(table);
  stats_.blocks_dropped += dropped;
  FORUMCAST_COUNTER_ADD("serve.cache.blocks_dropped", dropped);
}

void FeatureCache::assemble(forum::UserId u, const QuestionBlock& block,
                            std::span<double> row) const {
  FORUMCAST_CHECK(bound_);
  users_->assemble(u, block, row);
}

void FeatureCache::UserTable::assemble(forum::UserId u,
                                       const QuestionBlock& block,
                                       std::span<double> row) const {
  using features::FeatureId;
  const auto& layout = extractor_->layout();
  FORUMCAST_CHECK(row.size() == layout.dimension());
  FORUMCAST_CHECK(static_cast<std::size_t>(u) * stride_ < rows_.size());
  const std::size_t num_topics = extractor_->num_topics();
  const double* user = rows_.data() + u * stride_;
  const std::span<const double> d_u(user + kUserScalarSlots, num_topics);

  auto put = [&](FeatureId id, double value) { row[layout.offset(id)] = value; };
  auto put_dist = [&](FeatureId id, std::span<const double> dist) {
    const std::size_t start = layout.offset(id);
    for (std::size_t k = 0; k < num_topics; ++k) row[start + k] = dist[k];
  };

  // User features (i)-(v), straight from the cached block.
  put(FeatureId::AnswersProvided, user[kAnswersProvided]);
  put(FeatureId::AnswerRatio, user[kAnswerRatio]);
  put(FeatureId::NetAnswerVotes, user[kNetAnswerVotes]);
  put(FeatureId::MedianResponseTime, user[kMedianResponseTime]);
  put_dist(FeatureId::TopicsAnswered, d_u);

  // Question features (vi)-(ix), from the cached block.
  put(FeatureId::NetQuestionVotes, block.net_votes);
  put(FeatureId::QuestionWordLength, block.word_length);
  put(FeatureId::QuestionCodeLength, block.code_length);
  put_dist(FeatureId::TopicsAsked, block.topics);

  // User-question features (x)-(xii) and social features (xiii)-(xx). The
  // pair terms are computed here for this row only, with the calls and
  // accumulation order of FeatureExtractor::features (same answered-list
  // order, same −1 co-occurrence correction), so each is the exact double
  // the reference path produces. The block's similarity table turns the
  // TopicWeighted* loops into lookups.
  const forum::QuestionId q = block.question;
  const auto& stats = extractor_->user_stats(u);
  put(FeatureId::UserQuestionTopicSimilarity,
      topics::total_variation_similarity(stats.topic_distribution,
                                         block.topics));
  double topic_weighted_answers = 0.0;
  double topic_weighted_votes = 0.0;
  for (std::size_t i = 0; i < stats.answered.size(); ++i) {
    const forum::QuestionId r = stats.answered[i];
    if (r == q) continue;
    FORUMCAST_CHECK(r < block.similarity.size());
    const double sim = block.similarity[r];
    topic_weighted_answers += sim;
    topic_weighted_votes += stats.answered_votes[i] * sim;
  }
  put(FeatureId::TopicWeightedQuestionsAnswered, topic_weighted_answers);
  put(FeatureId::TopicWeightedAnswerVotes, topic_weighted_votes);
  put(FeatureId::UserUserTopicSimilarity,
      topics::total_variation_similarity(stats.topic_distribution,
                                         block.asker_topics));
  double cooccurrence = extractor_->thread_cooccurrence(u, block.asker);
  if (block.asker_in_thread &&
      std::binary_search(stats.participated.begin(), stats.participated.end(),
                         q)) {
    cooccurrence -= 1.0;
  }
  put(FeatureId::ThreadCooccurrence, cooccurrence);
  put(FeatureId::QaCloseness, user[kQaCloseness]);
  put(FeatureId::QaBetweenness, user[kQaBetweenness]);
  put(FeatureId::QaResourceAllocation,
      graph::resource_allocation_index(extractor_->qa_graph(), u, block.asker));
  put(FeatureId::DenseCloseness, user[kDenseCloseness]);
  put(FeatureId::DenseBetweenness, user[kDenseBetweenness]);
  put(FeatureId::DenseResourceAllocation,
      graph::resource_allocation_index(extractor_->dense_graph(), u,
                                       block.asker));
}

}  // namespace forumcast::serve
