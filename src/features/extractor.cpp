#include "features/extractor.hpp"

#include <algorithm>
#include <chrono>

#include "forum/sln.hpp"
#include "graph/centrality.hpp"
#include "graph/link_features.hpp"
#include "obs/obs.hpp"
#include "text/post_text.hpp"
#include "text/tokenizer.hpp"
#include "text/vocabulary.hpp"
#include "topics/topic_math.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace forumcast::features {

namespace {
std::vector<forum::QuestionId> intersect_sorted(
    const std::vector<forum::QuestionId>& a,
    const std::vector<forum::QuestionId>& b, std::size_t& count) {
  count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return {};
}

// Deterministic fold-in seed for an answer document outside the topic
// corpus. Keyed by (question, answer index) so a streaming fold-in and a
// batch rebuild draw identical Gibbs chains for the same post. (Question
// posts keep their historical 0x5eed + q seed.)
std::uint64_t answer_doc_seed(forum::QuestionId q, std::size_t answer_index) {
  return 0xa45e7d0cULL +
         0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(q) +
         static_cast<std::uint64_t>(answer_index);
}

void insert_sorted_unique(std::vector<forum::QuestionId>& ids,
                          forum::QuestionId q) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), q);
  if (it == ids.end() || *it != q) ids.insert(it, q);
}
}  // namespace

FeatureExtractor::FeatureExtractor(const forum::Dataset& dataset,
                                   std::span<const forum::QuestionId> inference_set,
                                   ExtractorConfig config)
    : dataset_(dataset),
      config_(config),
      layout_(config.num_topics),
      lda_([&config] {
        topics::LdaConfig lda_config = config.lda;
        lda_config.num_topics = config.num_topics;
        return lda_config;
      }()),
      qa_graph_(0),
      dense_graph_(0) {
  FORUMCAST_CHECK(config_.num_topics > 0);
  FORUMCAST_SPAN_NAMED(build_span, "features.build");

  window_.assign(inference_set.begin(), inference_set.end());
  std::sort(window_.begin(), window_.end());
  window_.erase(std::unique(window_.begin(), window_.end()), window_.end());

  // --- Topic model over the window's posts (questions and answers). ---
  // Document ids: for each window question, its question post then answers.
  // Posts beyond the corpus cutoff stay out of the training set entirely —
  // they are folded in below, exactly like the streaming path would.
  const double corpus_cutoff = config_.topic_corpus_cutoff_hours;
  struct DocRef {
    forum::QuestionId question;
    int answer_index;  // -1 = the question post
  };
  std::vector<DocRef> doc_refs;
  std::vector<std::vector<text::TokenId>> documents;
  {
    FORUMCAST_SPAN("features.tokenize_corpus");
    for (forum::QuestionId q : inference_set) {
      const forum::Thread& thread = dataset_.thread(q);
      if (thread.question.timestamp_hours <= corpus_cutoff) {
        const auto q_split = text::split_post_body(thread.question.body_html);
        documents.push_back(
            vocabulary_.encode(tokenizer_.tokenize(q_split.words)));
        doc_refs.push_back({q, -1});
      }
      for (std::size_t a = 0; a < thread.answers.size(); ++a) {
        if (thread.answers[a].timestamp_hours > corpus_cutoff) continue;
        const auto a_split = text::split_post_body(thread.answers[a].body_html);
        documents.push_back(
            vocabulary_.encode(tokenizer_.tokenize(a_split.words)));
        doc_refs.push_back({q, static_cast<int>(a)});
      }
    }
  }

  // Degenerate window (no documents / empty vocabulary): uniform topics.
  has_corpus_ = !documents.empty() && vocabulary_.size() > 0;
  if (has_corpus_) {
    lda_.fit(documents, vocabulary_.size());
  }
  auto uniform = topics::uniform_distribution(config_.num_topics);

  // --- Topic distribution + lengths for every dataset question. ---
  const std::size_t num_questions = dataset_.num_questions();
  question_topics_.assign(num_questions, uniform);
  question_word_length_.assign(num_questions, 0.0);
  question_code_length_.assign(num_questions, 0.0);
  std::vector<std::uint8_t> question_in_corpus(num_questions, 0);
  if (has_corpus_) {
    for (std::size_t doc = 0; doc < doc_refs.size(); ++doc) {
      if (doc_refs[doc].answer_index == -1) {
        question_topics_[doc_refs[doc].question] = lda_.document_topics(doc);
        question_in_corpus[doc_refs[doc].question] = 1;
      }
    }
  }
  // Lengths are cheap; fold-in inference for questions whose post is not a
  // corpus document is not, and each question is independent (own seed), so
  // it runs in parallel.
  std::vector<forum::QuestionId> to_infer;
  for (forum::QuestionId q = 0; q < num_questions; ++q) {
    const forum::Thread& thread = dataset_.thread(q);
    const auto split = text::split_post_body(thread.question.body_html);
    question_word_length_[q] = static_cast<double>(split.words.size());
    question_code_length_[q] = static_cast<double>(split.code.size());
    if (has_corpus_ && !question_in_corpus[q]) to_infer.push_back(q);
  }
  // In-corpus questions reuse the trained per-document distributions (cache
  // hits); everything else pays a Gibbs fold-in (cache misses).
  FORUMCAST_COUNTER_ADD("features.topic_cache_hits",
                        num_questions - to_infer.size());
  FORUMCAST_COUNTER_ADD("features.topic_cache_misses", to_infer.size());
  {
    FORUMCAST_SPAN("features.topic_fold_in");
    util::parallel_for_chunks(
        to_infer.size(), [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            question_topics_[to_infer[i]] = fold_question_topics(to_infer[i]);
          }
        });
  }

  // --- Per-user aggregates over the window. ---
  FORUMCAST_SPAN_NAMED(user_stats_span, "features.user_stats");
  user_stats_.assign(dataset_.num_users(), UserStats{});
  for (auto& stats : user_stats_) stats.topic_distribution = uniform;

  user_topic_accum_.assign(dataset_.num_users(), {});
  user_doc_count_.assign(dataset_.num_users(), 0);
  user_streamed_docs_.assign(dataset_.num_users(), {});
  for (auto& topics_accum : user_topic_accum_) {
    topics_accum.assign(config_.num_topics, 0.0);
  }

  std::vector<double> all_delays;
  for (std::size_t doc = 0; has_corpus_ && doc < doc_refs.size(); ++doc) {
    const DocRef& ref = doc_refs[doc];
    if (ref.answer_index < 0) continue;
    const forum::Thread& thread = dataset_.thread(ref.question);
    const forum::Post& answer =
        thread.answers[static_cast<std::size_t>(ref.answer_index)];
    const auto theta = lda_.document_topics(doc);
    auto& accum = user_topic_accum_[answer.creator];
    for (std::size_t k = 0; k < config_.num_topics; ++k) accum[k] += theta[k];
    ++user_doc_count_[answer.creator];
  }
  // Answer documents beyond the corpus cutoff: folded in with deterministic
  // per-document seeds, in (question, answer index) order — the exact
  // sequence the streaming path appends, so both accumulate the same bits.
  if (has_corpus_) {
    for (forum::QuestionId q : inference_set) {
      const forum::Thread& thread = dataset_.thread(q);
      for (std::size_t a = 0; a < thread.answers.size(); ++a) {
        const forum::Post& answer = thread.answers[a];
        if (answer.timestamp_hours <= corpus_cutoff) continue;
        const auto split = text::split_post_body(answer.body_html);
        const auto tokens =
            vocabulary_.encode_existing(tokenizer_.tokenize(split.words));
        const auto theta =
            lda_.infer(tokens, /*iterations=*/30, answer_doc_seed(q, a));
        auto& accum = user_topic_accum_[answer.creator];
        for (std::size_t k = 0; k < config_.num_topics; ++k) {
          accum[k] += theta[k];
        }
        ++user_doc_count_[answer.creator];
      }
    }
  }

  for (forum::QuestionId q : inference_set) {
    const forum::Thread& thread = dataset_.thread(q);
    auto& asker_stats = user_stats_[thread.question.creator];
    ++asker_stats.questions_asked;
    asker_stats.participated.push_back(q);
    for (const auto& answer : thread.answers) {
      auto& stats = user_stats_[answer.creator];
      ++stats.answers_provided;
      stats.net_answer_votes += answer.net_votes;
      stats.answer_votes.push_back(static_cast<double>(answer.net_votes));
      const double delay =
          answer.timestamp_hours - thread.question.timestamp_hours;
      stats.response_times.push_back(delay);
      all_delays.push_back(delay);
      global_delay_sketch_.add(delay);
      stats.answered.push_back(q);
      stats.answered_votes.push_back(static_cast<double>(answer.net_votes));
      stats.participated.push_back(q);
    }
  }
  for (std::size_t u = 0; u < user_stats_.size(); ++u) {
    auto& stats = user_stats_[u];
    std::sort(stats.participated.begin(), stats.participated.end());
    stats.participated.erase(
        std::unique(stats.participated.begin(), stats.participated.end()),
        stats.participated.end());
    if (user_doc_count_[u] > 0) {
      // Scale the raw sums without mutating them: the accumulators stay
      // live so streamed answer documents can extend them later.
      const double inv = 1.0 / static_cast<double>(user_doc_count_[u]);
      const auto& accum = user_topic_accum_[u];
      for (std::size_t k = 0; k < config_.num_topics; ++k) {
        stats.topic_distribution[k] = accum[k] * inv;
      }
    }
  }
  global_median_response_ =
      all_delays.empty() ? 0.0 : util::median(all_delays);
  user_stats_span.end();

  // --- SLN graphs and centralities over the window. ---
  {
    FORUMCAST_SPAN("features.sln_graphs");
    qa_graph_ = forum::build_qa_graph(dataset_, inference_set);
    dense_graph_ = forum::build_dense_graph(dataset_, inference_set);
    qa_centrality_engine_ = graph::CentralityEngine(config_.centrality);
    dense_centrality_engine_ = graph::CentralityEngine(config_.centrality);
    refresh_centrality_full(util::default_thread_count());
  }

  if (build_span.active()) {
    build_span.arg("window_questions",
                   static_cast<double>(inference_set.size()));
    build_span.arg("users", static_cast<double>(dataset_.num_users()));
  }
  FORUMCAST_LOG_INFO_KV("features.build",
                        {"window_questions", inference_set.size()},
                        {"users", dataset_.num_users()},
                        {"dimension", layout_.dimension()});
}

std::vector<double> FeatureExtractor::fold_question_topics(
    forum::QuestionId q) const {
  const auto split = text::split_post_body(dataset_.thread(q).question.body_html);
  const auto tokens =
      vocabulary_.encode_existing(tokenizer_.tokenize(split.words));
  return lda_.infer(tokens, /*iterations=*/30, /*seed=*/0x5eedULL + q);
}

bool FeatureExtractor::in_window(forum::QuestionId q) const {
  return std::binary_search(window_.begin(), window_.end(), q);
}

void FeatureExtractor::stream_add_question(forum::QuestionId q) {
  FORUMCAST_CHECK(q < dataset_.num_questions());
  FORUMCAST_CHECK_MSG(q == question_topics_.size(),
                      "streamed questions must extend the dataset contiguously");
  const forum::Thread& thread = dataset_.thread(q);
  const auto split = text::split_post_body(thread.question.body_html);
  question_word_length_.push_back(static_cast<double>(split.words.size()));
  question_code_length_.push_back(static_cast<double>(split.code.size()));
  question_topics_.push_back(
      has_corpus_ ? fold_question_topics(q)
                  : topics::uniform_distribution(config_.num_topics));

  auto& asker_stats = user_stats_[thread.question.creator];
  ++asker_stats.questions_asked;
  insert_sorted_unique(asker_stats.participated, q);
  window_.push_back(q);  // ids are monotone, so window_ stays sorted
  FORUMCAST_COUNTER_ADD("features.topic_cache_misses", 1);
}

bool FeatureExtractor::stream_add_answer(forum::QuestionId q,
                                         std::size_t answer_index) {
  FORUMCAST_CHECK_MSG(in_window(q), "streamed answer to a non-window question");
  const forum::Thread& thread = dataset_.thread(q);
  FORUMCAST_CHECK(answer_index < thread.answers.size());
  const forum::Post& answer = thread.answers[answer_index];
  const forum::UserId u = answer.creator;
  auto& stats = user_stats_[u];

  // Insert at the canonical position — ascending (question, answer index) —
  // which is exactly where a batch rebuild's aggregate loop would have
  // emitted this answer. All four aligned lists share one position.
  const std::size_t pos = static_cast<std::size_t>(
      std::upper_bound(stats.answered.begin(), stats.answered.end(), q) -
      stats.answered.begin());
  const double delay =
      answer.timestamp_hours - thread.question.timestamp_hours;
  stats.answered.insert(stats.answered.begin() + pos, q);
  stats.answered_votes.insert(stats.answered_votes.begin() + pos,
                              static_cast<double>(answer.net_votes));
  stats.answer_votes.insert(stats.answer_votes.begin() + pos,
                            static_cast<double>(answer.net_votes));
  stats.response_times.insert(stats.response_times.begin() + pos, delay);
  ++stats.answers_provided;
  stats.net_answer_votes += answer.net_votes;
  insert_sorted_unique(stats.participated, q);

  global_delay_sketch_.add(delay);
  global_median_response_ = global_delay_sketch_.median();

  if (has_corpus_) {
    const auto split = text::split_post_body(answer.body_html);
    const auto tokens =
        vocabulary_.encode_existing(tokenizer_.tokenize(split.words));
    StreamedDoc doc;
    doc.question = q;
    doc.answer_index = static_cast<std::uint32_t>(answer_index);
    doc.theta = lda_.infer(tokens, /*iterations=*/30,
                           answer_doc_seed(q, answer_index));
    auto& docs = user_streamed_docs_[u];
    const auto it = std::upper_bound(
        docs.begin(), docs.end(), doc,
        [](const StreamedDoc& a, const StreamedDoc& b) {
          return a.question != b.question ? a.question < b.question
                                          : a.answer_index < b.answer_index;
        });
    docs.insert(it, std::move(doc));
    ++user_doc_count_[u];
    topics_dirty_.push_back(u);
  }

  // Incremental SLN edges: the asker–answerer QA edge, and dense edges from
  // the new answerer to every prior thread participant. The union over all
  // events equals the batch pairwise build (add_edge deduplicates).
  bool edges_added = false;
  const forum::UserId asker = thread.question.creator;
  if (asker != u && qa_graph_.add_edge(asker, u)) {
    edges_added = true;
    qa_new_edges_.emplace_back(asker, u);
  }
  std::vector<forum::UserId> prior = {asker};
  for (std::size_t a = 0; a < answer_index; ++a) {
    prior.push_back(thread.answers[a].creator);
  }
  std::sort(prior.begin(), prior.end());
  prior.erase(std::unique(prior.begin(), prior.end()), prior.end());
  for (const forum::UserId p : prior) {
    if (p != u && dense_graph_.add_edge(u, p)) {
      edges_added = true;
      dense_new_edges_.emplace_back(u, p);
    }
  }
  graph_dirty_ |= edges_added;
  return edges_added;
}

void FeatureExtractor::stream_apply_answer_vote(forum::QuestionId q,
                                                std::size_t answer_index,
                                                int delta) {
  FORUMCAST_CHECK_MSG(in_window(q), "streamed vote on a non-window question");
  const forum::Thread& thread = dataset_.thread(q);
  FORUMCAST_CHECK(answer_index < thread.answers.size());
  const forum::Post& answer = thread.answers[answer_index];
  const forum::UserId u = answer.creator;
  auto& stats = user_stats_[u];

  // The n-th of u's answers within this thread (by index) occupies the n-th
  // slot of the run of `q` entries in the user's aligned lists.
  std::size_t rank = 0;
  for (std::size_t a = 0; a < answer_index; ++a) {
    if (thread.answers[a].creator == u) ++rank;
  }
  const std::size_t pos =
      static_cast<std::size_t>(
          std::lower_bound(stats.answered.begin(), stats.answered.end(), q) -
          stats.answered.begin()) +
      rank;
  FORUMCAST_CHECK(pos < stats.answered.size() && stats.answered[pos] == q);
  stats.net_answer_votes += delta;
  stats.answered_votes[pos] += delta;
  stats.answer_votes[pos] += delta;
}

void FeatureExtractor::stream_refresh() {
  FORUMCAST_SPAN("features.stream_refresh");
  std::sort(topics_dirty_.begin(), topics_dirty_.end());
  topics_dirty_.erase(
      std::unique(topics_dirty_.begin(), topics_dirty_.end()),
      topics_dirty_.end());
  for (const forum::UserId u : topics_dirty_) {
    // Replay the rebuild's accumulation: trained-corpus sums first, then
    // every folded document in (question, answer index) order, one divide.
    std::vector<double> accum = user_topic_accum_[u];
    for (const StreamedDoc& doc : user_streamed_docs_[u]) {
      for (std::size_t k = 0; k < config_.num_topics; ++k) {
        accum[k] += doc.theta[k];
      }
    }
    const double inv = 1.0 / static_cast<double>(user_doc_count_[u]);
    // Element-wise writes keep the distribution's buffer (and the spans the
    // serving cache hands out) stable.
    auto& dist = user_stats_[u].topic_distribution;
    for (std::size_t k = 0; k < config_.num_topics; ++k) {
      dist[k] = accum[k] * inv;
    }
  }
  topics_dirty_.clear();

  if (graph_dirty_) {
    FORUMCAST_SPAN("features.stream_centrality_refresh");
    // Timed on its own clock: a span's elapsed time reads 0 with tracing off.
    const auto refresh_start = std::chrono::steady_clock::now();
    const std::size_t threads = util::default_thread_count();
    if (config_.centrality.mode == graph::CentralityMode::kExact) {
      refresh_centrality_full(threads);
    } else {
      refresh_centrality_incremental(threads);
    }
    qa_new_edges_.clear();
    dense_new_edges_.clear();
    graph_dirty_ = false;
    const double refresh_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - refresh_start)
                                  .count();
    FORUMCAST_HISTOGRAM_OBSERVE("features.centrality_refresh_ms", refresh_ms,
                                0.1, 1, 10, 100, 1000, 10000);
  }
}

void FeatureExtractor::refresh_centrality_full(std::size_t threads) {
  if (config_.centrality.mode == graph::CentralityMode::kExact) {
    qa_closeness_ = graph::closeness_centrality(qa_graph_, threads);
    qa_betweenness_ = graph::betweenness_centrality(qa_graph_, threads);
    dense_closeness_ = graph::closeness_centrality(dense_graph_, threads);
    dense_betweenness_ = graph::betweenness_centrality(dense_graph_, threads);
    // Two graphs recomputed in full (the engines count their own rebuilds).
    FORUMCAST_COUNTER_ADD("centrality.full_refreshes", 2);
  } else {
    qa_centrality_engine_.rebuild(qa_graph_, threads);
    dense_centrality_engine_.rebuild(dense_graph_, threads);
    qa_closeness_ = qa_centrality_engine_.closeness();
    qa_betweenness_ = qa_centrality_engine_.betweenness();
    dense_closeness_ = dense_centrality_engine_.closeness();
    dense_betweenness_ = dense_centrality_engine_.betweenness();
  }
}

void FeatureExtractor::refresh_centrality_incremental(std::size_t threads) {
  // Uninitialized engines (fresh decode, config swap) fall back to a full
  // pivot rebuild inside refresh(); a graph with no new edges keeps every
  // cached pivot and the fold below is a cheap re-sum.
  if (!qa_new_edges_.empty() || !qa_centrality_engine_.built()) {
    qa_centrality_engine_.refresh(qa_graph_, qa_new_edges_, threads);
    qa_closeness_ = qa_centrality_engine_.closeness();
    qa_betweenness_ = qa_centrality_engine_.betweenness();
  }
  if (!dense_new_edges_.empty() || !dense_centrality_engine_.built()) {
    dense_centrality_engine_.refresh(dense_graph_, dense_new_edges_, threads);
    dense_closeness_ = dense_centrality_engine_.closeness();
    dense_betweenness_ = dense_centrality_engine_.betweenness();
  }
}

void FeatureExtractor::set_centrality_config(
    const graph::CentralityConfig& config) {
  FORUMCAST_CHECK_MSG(!graph_dirty_,
                      "set_centrality_config on a graph-dirty extractor");
  config_.centrality = config;
  qa_centrality_engine_ = graph::CentralityEngine(config);
  dense_centrality_engine_ = graph::CentralityEngine(config);
}

const FeatureExtractor::UserStats& FeatureExtractor::user_stats(
    forum::UserId u) const {
  FORUMCAST_CHECK(u < user_stats_.size());
  return user_stats_[u];
}

std::span<const double> FeatureExtractor::question_topics(
    forum::QuestionId q) const {
  FORUMCAST_CHECK(q < question_topics_.size());
  return question_topics_[q];
}

double FeatureExtractor::question_word_length(forum::QuestionId q) const {
  FORUMCAST_CHECK(q < question_word_length_.size());
  return question_word_length_[q];
}

double FeatureExtractor::question_code_length(forum::QuestionId q) const {
  FORUMCAST_CHECK(q < question_code_length_.size());
  return question_code_length_[q];
}

double FeatureExtractor::median_response_time(forum::UserId u) const {
  const UserStats& stats = user_stats(u);
  if (stats.response_times.empty()) return global_median_response_;
  return util::median(stats.response_times);
}

double FeatureExtractor::thread_cooccurrence(forum::UserId u,
                                             forum::UserId v) const {
  std::size_t count = 0;
  intersect_sorted(user_stats(u).participated, user_stats(v).participated, count);
  return static_cast<double>(count);
}

std::vector<double> FeatureExtractor::features(forum::UserId u,
                                               forum::QuestionId q) const {
  FORUMCAST_CHECK(u < dataset_.num_users());
  FORUMCAST_CHECK(q < dataset_.num_questions());
  FORUMCAST_COUNTER_ADD("features.vectors_built", 1);
  const UserStats& stats = user_stats_[u];
  const forum::Thread& thread = dataset_.thread(q);
  const forum::UserId asker = thread.question.creator;
  const auto& d_u = stats.topic_distribution;
  const auto& d_q = question_topics_[q];
  const auto& d_v = user_stats_[asker].topic_distribution;

  std::vector<double> x(layout_.dimension(), 0.0);
  auto put = [&](FeatureId id, double value) { x[layout_.offset(id)] = value; };
  auto put_dist = [&](FeatureId id, std::span<const double> dist) {
    const std::size_t start = layout_.offset(id);
    for (std::size_t k = 0; k < config_.num_topics; ++k) x[start + k] = dist[k];
  };

  // User features (i)-(v).
  put(FeatureId::AnswersProvided, static_cast<double>(stats.answers_provided));
  put(FeatureId::AnswerRatio,
      static_cast<double>(stats.answers_provided) /
          (1.0 + static_cast<double>(stats.questions_asked)));
  put(FeatureId::NetAnswerVotes, stats.net_answer_votes);
  put(FeatureId::MedianResponseTime, median_response_time(u));
  put_dist(FeatureId::TopicsAnswered, d_u);

  // Question features (vi)-(ix).
  put(FeatureId::NetQuestionVotes, static_cast<double>(thread.question.net_votes));
  put(FeatureId::QuestionWordLength, question_word_length_[q]);
  put(FeatureId::QuestionCodeLength, question_code_length_[q]);
  put_dist(FeatureId::TopicsAsked, d_q);

  // User-question features (x)-(xii).
  put(FeatureId::UserQuestionTopicSimilarity,
      topics::total_variation_similarity(d_u, d_q));
  double topic_weighted_answers = 0.0;
  double topic_weighted_votes = 0.0;
  for (std::size_t i = 0; i < stats.answered.size(); ++i) {
    const forum::QuestionId r = stats.answered[i];
    if (r == q) continue;
    const double sim =
        topics::total_variation_similarity(question_topics_[r], d_q);
    topic_weighted_answers += sim;
    topic_weighted_votes += stats.answered_votes[i] * sim;
  }
  put(FeatureId::TopicWeightedQuestionsAnswered, topic_weighted_answers);
  put(FeatureId::TopicWeightedAnswerVotes, topic_weighted_votes);

  // Social features (xiii)-(xx).
  put(FeatureId::UserUserTopicSimilarity,
      topics::total_variation_similarity(d_u, d_v));
  // Exclude the target thread itself from co-occurrence: counting it would
  // label every observed answerer with h ≥ 1 and make training trivially
  // separable (a leak the paper's 0.86 AUC clearly does not have).
  double cooccurrence = thread_cooccurrence(u, asker);
  if (std::binary_search(stats.participated.begin(), stats.participated.end(), q) &&
      std::binary_search(user_stats_[asker].participated.begin(),
                         user_stats_[asker].participated.end(), q)) {
    cooccurrence -= 1.0;
  }
  put(FeatureId::ThreadCooccurrence, cooccurrence);
  put(FeatureId::QaCloseness, qa_closeness_[u]);
  put(FeatureId::QaBetweenness, qa_betweenness_[u]);
  put(FeatureId::QaResourceAllocation,
      graph::resource_allocation_index(qa_graph_, u, asker));
  put(FeatureId::DenseCloseness, dense_closeness_[u]);
  put(FeatureId::DenseBetweenness, dense_betweenness_[u]);
  put(FeatureId::DenseResourceAllocation,
      graph::resource_allocation_index(dense_graph_, u, asker));
  return x;
}

}  // namespace forumcast::features
