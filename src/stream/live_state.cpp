#include "stream/live_state.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "features/extractor.hpp"
#include "obs/monitor/monitor.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/digest.hpp"

namespace forumcast::stream {

namespace {

forum::Post post_from_event(const ForumEvent& event) {
  forum::Post post;
  post.creator = event.user;
  post.timestamp_hours = event.timestamp_hours;
  post.net_votes = event.net_votes;
  post.body_html = event.body;
  return post;
}

}  // namespace

LiveState::LiveState(core::ForecastPipeline& pipeline, forum::Dataset& dataset,
                     LiveStateConfig config)
    : pipeline_(pipeline), dataset_(dataset), config_(std::move(config)) {
  FORUMCAST_CHECK_MSG(pipeline_.fitted(),
                      "LiveState requires a fitted pipeline");
  FORUMCAST_CHECK_MSG(&pipeline_.dataset() == &dataset_,
                      "LiveState dataset must be the pipeline's dataset "
                      "object — ingestion mutates it in place");
  last_event_time_ = dataset_.last_post_time();

  if (!config_.wal_dir.empty()) {
    std::filesystem::create_directories(config_.wal_dir);
    if (config_.save_model_bundle) {
      // Written *before* replay: the bundle must capture the fit-time model
      // — recovery re-applies every streamed event on top of it, so a
      // bundle written after replay would double-apply the streamed state.
      std::ostringstream bundle;
      pipeline_.save(bundle);
      write_file_atomic(model_bundle_path(config_.wal_dir),
                        std::move(bundle).str());
      model_ref_ = "model.fcm";
    }
    const RecoveredLog recovered = recover_log(config_.wal_dir);
    recovered_truncated_tail_ = recovered.truncated_tail;
    if (!recovered.events.empty()) {
      FORUMCAST_SPAN("stream.recover");
      const double median_before =
          pipeline_.extractor().global_median_response();
      for (const ForumEvent& event : recovered.events) {
        apply_locked(event, /*durable=*/false);
      }
      events_recovered_ = recovered.events.size();
      finish_batch_locked(median_before);  // no scorers attached yet
      FORUMCAST_COUNTER_ADD("stream.events.recovered", events_recovered_);
    }
    if (recovered.truncated_tail) {
      // Drop the torn record before appending again — O_APPEND would put
      // new records after the garbage, unreachable on the next recovery.
      std::filesystem::resize_file(wal_path(config_.wal_dir),
                                   recovered.wal_valid_bytes);
    }
    // Open for append only after replay so a recovery failure leaves the
    // log untouched.
    wal_ = std::make_unique<WalWriter>(wal_path(config_.wal_dir));
  }
}

LiveState::~LiveState() = default;

std::unique_lock<std::shared_mutex> LiveState::writer_lock() const {
  writers_waiting_.fetch_add(1, std::memory_order_acq_rel);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  writers_waiting_.fetch_sub(1, std::memory_order_acq_rel);
  return lock;
}

std::shared_lock<std::shared_mutex> LiveState::reader_lock() const {
  // The hold-off is advisory (a writer may register right after the check);
  // it only needs to keep a steady reader stream from starving writers.
  while (writers_waiting_.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
  return std::shared_lock<std::shared_mutex>(mutex_);
}

std::shared_ptr<void> LiveState::read_guard() const {
  return std::make_shared<std::shared_lock<std::shared_mutex>>(reader_lock());
}

std::size_t LiveState::ingest(std::span<const ForumEvent> events) {
  if (events.empty()) return 0;
  FORUMCAST_SPAN("stream.ingest");
  auto lock = writer_lock();
  const double median_before = pipeline_.extractor().global_median_response();
  std::size_t applied = 0;
  try {
    for (const ForumEvent& event : events) {
      apply_locked(event, /*durable=*/true);
      ++applied;
    }
  } catch (...) {
    // Events before the bad one are applied and logged; derived state must
    // still be made consistent before rethrowing.
    finish_batch_locked(median_before);
    throw;
  }
  finish_batch_locked(median_before);
  FORUMCAST_COUNTER_ADD("stream.events.applied", applied);
  FORUMCAST_GAUGE_SET("stream.last_seq", static_cast<double>(last_seq_));
  return applied;
}

std::size_t LiveState::apply_locked(ForumEvent event, bool durable) {
  if (event.seq == 0) event.seq = last_seq_ + 1;
  FORUMCAST_CHECK_MSG(event.seq == last_seq_ + 1,
                      "event sequence gap: expected " << (last_seq_ + 1)
                                                      << ", got " << event.seq);
  FORUMCAST_CHECK_MSG(
      event.timestamp_hours >= last_event_time_,
      "events must be time-ordered: " << event.timestamp_hours << " < "
                                      << last_event_time_);

  features::FeatureExtractor& extractor = pipeline_.extractor_mutable();
  // Validate before any mutation: a rejected event must leave the dataset as
  // a replay of the log would rebuild it.
  if (event.type != EventType::kNewQuestion) {
    FORUMCAST_CHECK_MSG(event.question < dataset_.num_questions(),
                        "event on unknown question " << event.question);
    const bool answer_level = event.type == EventType::kNewAnswer ||
                              event.answer_index >= 0;
    FORUMCAST_CHECK_MSG(!answer_level || extractor.in_window(event.question),
                        "answer-level event on question "
                            << event.question << " outside the fit window");
  }
  const auto start = std::chrono::steady_clock::now();
  switch (event.type) {
    case EventType::kNewQuestion: {
      const forum::QuestionId q = dataset_.append_thread(post_from_event(event));
      event.question = q;  // recorded in the log so replay is deterministic
      extractor.stream_add_question(q);
      // o_u and participation moved; blocks asked by u are dropped and u's
      // rows repatched via the `users` category. Surviving blocks grow their
      // similarity tables inside FeatureCache::invalidate.
      dirty_.mark_user(event.user);
      if (monitor_ != nullptr) {
        monitor_->observe_question(q, event.timestamp_hours);
      }
      FORUMCAST_COUNTER_ADD("stream.events.question", 1);
      break;
    }
    case EventType::kNewAnswer: {
      const std::size_t index =
          dataset_.append_answer(event.question, post_from_event(event));
      event.answer_index = static_cast<std::int32_t>(index);
      const bool edges_added =
          extractor.stream_add_answer(event.question, index);
      // a_u, v_u, r_u, d_u and the answered list all moved → pair-level; the
      // receiving thread's cached block is stale (participants changed); a
      // new graph edge shifts centralities for every node.
      dirty_.mark_user(event.user);
      dirty_.mark_question(event.question);
      if (edges_added) dirty_.mark_all();
      if (monitor_ != nullptr) {
        // Realized response delay = answer time − the question's post time,
        // the quantity the timing model predicts (paper Sec. III-B).
        const double delay =
            event.timestamp_hours -
            dataset_.thread(event.question).question.timestamp_hours;
        monitor_->observe_answer(event.question, event.user, delay,
                                 event.timestamp_hours);
      }
      FORUMCAST_COUNTER_ADD("stream.events.answer", 1);
      break;
    }
    case EventType::kVote: {
      dataset_.apply_vote(event.question, event.answer_index,
                          event.vote_delta);
      if (event.answer_index < 0) {
        // v_q lives in the question block only.
        dirty_.mark_question(event.question);
      } else {
        const forum::UserId creator =
            dataset_.thread(event.question)
                .answers[static_cast<std::size_t>(event.answer_index)]
                .creator;
        extractor.stream_apply_answer_vote(
            event.question, static_cast<std::size_t>(event.answer_index),
            event.vote_delta);
        // v_u and the creator's answered_votes feed its rows everywhere.
        dirty_.mark_user(creator);
        if (monitor_ != nullptr) {
          // Re-sample the RMSE join against the answer's *running total*:
          // the predicted score targets the net votes the answer settles at,
          // so each vote refreshes the realized side.
          const double net = static_cast<double>(
              dataset_.thread(event.question)
                  .answers[static_cast<std::size_t>(event.answer_index)]
                  .net_votes);
          monitor_->observe_vote(event.question, creator, net,
                                 event.timestamp_hours);
        }
      }
      FORUMCAST_COUNTER_ADD("stream.events.vote", 1);
      break;
    }
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  FORUMCAST_HISTOGRAM_OBSERVE("stream.apply_ms", ms, 0.01, 0.1, 1, 10, 100);

  last_seq_ = event.seq;
  last_event_time_ = event.timestamp_hours;
  ++events_since_snapshot_;
  if (durable && wal_) wal_->append(event);
  applied_.push_back(std::move(event));
  return 1;
}

void LiveState::finish_batch_locked(double global_median_before) {
  // Durability first: the batch must be on disk before any observer (an
  // attached scorer, a returning caller) can act on it.
  if (wal_ && wal_->records_appended() > 0) wal_->sync();

  features::FeatureExtractor& extractor = pipeline_.extractor_mutable();
  extractor.stream_refresh();

  // A moved global median shifts the r_u fallback under every user with no
  // window answers — scalar-only damage (their pair tables don't read r_u).
  if (extractor.global_median_response() != global_median_before) {
    for (forum::UserId u = 0;
         u < static_cast<forum::UserId>(dataset_.num_users()); ++u) {
      if (extractor.user_stats(u).answers_provided == 0) {
        dirty_.mark_user_scalars(u);
      }
    }
  }

  if (!dirty_.empty()) {
    FORUMCAST_GAUGE_SET("stream.dirty.users",
                        static_cast<double>(dirty_.user_count()));
    FORUMCAST_GAUGE_SET("stream.dirty.questions",
                        static_cast<double>(dirty_.question_count()));
    const serve::CacheInvalidation invalidation = dirty_.drain();
    // Still under our writer lock: lock order LiveState → scorer matches
    // score(), so a concurrent scorer either sees the old cache before this
    // batch or the repaired one after it — never a half-applied mix.
    for (serve::BatchScorer* scorer : scorers_) {
      scorer->invalidate(invalidation);
    }
  }
  // Event time, not wall time, drives SLO evaluation — replayed history and
  // live traffic behave identically. Our writer lock and the scorer path's
  // reader lock are mutually exclusive, so monitor calls can't interleave
  // with record_batch() from the same LiveState's traffic.
  if (monitor_ != nullptr) monitor_->maybe_evaluate(last_event_time_);
  maybe_snapshot_locked();
}

void LiveState::maybe_snapshot_locked() {
  if (config_.wal_dir.empty() || config_.snapshot_every == 0) return;
  if (events_since_snapshot_ < config_.snapshot_every) return;
  write_snapshot(snapshot_path(config_.wal_dir), applied_, last_seq_,
                 model_ref_);
  events_since_snapshot_ = 0;
}

void LiveState::snapshot_now() {
  auto lock = writer_lock();
  if (config_.wal_dir.empty()) return;
  write_snapshot(snapshot_path(config_.wal_dir), applied_, last_seq_,
                 model_ref_);
  events_since_snapshot_ = 0;
}

void LiveState::attach(serve::BatchScorer* scorer) {
  FORUMCAST_CHECK(scorer != nullptr);
  auto lock = writer_lock();
  if (std::find(scorers_.begin(), scorers_.end(), scorer) == scorers_.end()) {
    scorers_.push_back(scorer);
  }
}

void LiveState::detach(serve::BatchScorer* scorer) {
  auto lock = writer_lock();
  std::erase(scorers_, scorer);
}

void LiveState::attach_monitor(obs::monitor::QualityMonitor* monitor) {
  auto lock = writer_lock();
  monitor_ = monitor;
}

core::Prediction LiveState::predict(forum::UserId u,
                                    forum::QuestionId q) const {
  auto lock = reader_lock();
  return pipeline_.predict(u, q);
}

std::vector<core::Prediction> LiveState::score(
    const serve::BatchScorer& scorer, forum::QuestionId question,
    std::span<const forum::UserId> users) const {
  auto lock = reader_lock();
  return scorer.score(question, users);
}

std::uint64_t LiveState::last_seq() const {
  auto lock = reader_lock();
  return last_seq_;
}

std::size_t LiveState::events_applied() const {
  auto lock = reader_lock();
  return applied_.size();
}

std::vector<ForumEvent> LiveState::event_log() const {
  auto lock = reader_lock();
  return applied_;
}

std::uint64_t LiveState::digest() const {
  auto lock = reader_lock();
  return digest_locked();
}

std::uint64_t LiveState::digest_locked() const {
  const features::FeatureExtractor& extractor = pipeline_.extractor();
  util::Fnv1a hash;

  const std::size_t num_users = dataset_.num_users();
  const std::size_t num_questions = dataset_.num_questions();
  hash.u64(num_users);
  hash.u64(num_questions);
  hash.f64(extractor.global_median_response());

  for (forum::UserId u = 0; u < num_users; ++u) {
    const auto& stats = extractor.user_stats(u);
    hash.u64(stats.answers_provided);
    hash.u64(stats.questions_asked);
    hash.f64(stats.net_answer_votes);
    hash.f64s(stats.answer_votes);
    hash.f64s(stats.response_times);
    hash.f64s(stats.topic_distribution);
    hash.f64s(stats.answered_votes);
    hash.u64(stats.answered.size());
    for (const forum::QuestionId q : stats.answered) hash.u64(q);
    hash.u64(stats.participated.size());
    for (const forum::QuestionId q : stats.participated) hash.u64(q);
  }

  for (forum::QuestionId q = 0; q < num_questions; ++q) {
    hash.f64s(extractor.question_topics(q));
    hash.f64(extractor.question_word_length(q));
    hash.f64(extractor.question_code_length(q));
    hash.f64(static_cast<double>(dataset_.thread(q).question.net_votes));
    hash.u64(dataset_.thread(q).answers.size());
  }

  for (const graph::Graph* g :
       {&extractor.qa_graph(), &extractor.dense_graph()}) {
    hash.u64(g->edge_count());
    for (graph::NodeId n = 0; n < g->node_count(); ++n) {
      for (const graph::NodeId v : g->neighbors(n)) hash.u64(v);
    }
  }
  hash.f64s(extractor.qa_closeness());
  hash.f64s(extractor.qa_betweenness());
  hash.f64s(extractor.dense_closeness());
  hash.f64s(extractor.dense_betweenness());
  return hash.value();
}

forum::Dataset dataset_from_events(const forum::Dataset& base,
                                   std::span<const ForumEvent> events) {
  forum::Dataset dataset = base;
  for (const ForumEvent& event : events) {
    switch (event.type) {
      case EventType::kNewQuestion: {
        const forum::QuestionId q = dataset.append_thread(post_from_event(event));
        FORUMCAST_CHECK_MSG(q == event.question,
                            "event log question id mismatch: " << q << " vs "
                                                               << event.question);
        break;
      }
      case EventType::kNewAnswer: {
        const std::size_t index =
            dataset.append_answer(event.question, post_from_event(event));
        FORUMCAST_CHECK_MSG(
            event.answer_index < 0 ||
                static_cast<std::int32_t>(index) == event.answer_index,
            "event log answer index mismatch");
        break;
      }
      case EventType::kVote:
        dataset.apply_vote(event.question, event.answer_index,
                           event.vote_delta);
        break;
    }
  }
  return dataset;
}

}  // namespace forumcast::stream
