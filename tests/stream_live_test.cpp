// Streaming ingestion correctness: replay equivalence, fine-grained cache
// invalidation, crash recovery, and concurrent ingest-while-scoring.
//
// The tentpole property: after any prefix of the event stream, the live
// in-place state (aggregates, topic profiles, graphs, centralities, and
// therefore features and predictions) is BIT-IDENTICAL to rebuilding the
// dataset from (base + events) and deriving feature state from scratch with
// the topic corpus pinned to the fit-time horizon. All comparisons use exact
// equality, never tolerances.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "features/extractor.hpp"
#include "forum/generator.hpp"
#include "obs/obs.hpp"
#include "serve/batch_scorer.hpp"
#include "stream/live_state.hpp"
#include "stream/split.hpp"
#include "util/check.hpp"

namespace forumcast::stream {
namespace {

constexpr double kCutoffHours = 22.0 * 24.0;

core::PipelineConfig fast_pipeline_config() {
  core::PipelineConfig config;
  config.extractor.lda.iterations = 15;
  config.answer.logistic.epochs = 40;
  config.vote.epochs = 20;
  config.timing.epochs = 8;
  config.survival_samples_per_thread = 5;
  return config;
}

// A forum split at day 22 with the pipeline fitted on the base part (less
// its first `unfitted_questions` questions). Each test owns its own instance
// because ingestion mutates base + pipeline in place; construction is
// deterministic, so two instances start identical.
struct LiveCase {
  forum::Dataset base;
  std::vector<ForumEvent> events;
  core::ForecastPipeline pipeline;

  explicit LiveCase(core::PipelineConfig pipeline_config = fast_pipeline_config(),
                    std::size_t unfitted_questions = 0)
      : pipeline(pipeline_config) {
    forum::GeneratorConfig config;
    config.num_users = 120;
    config.num_questions = 130;
    config.seed = 4111;
    const auto full = forum::generate_forum(config).dataset.preprocessed();
    auto split = split_events_after(full, kCutoffHours);
    base = std::move(split.base);
    events = std::move(split.events);
    FORUMCAST_CHECK(!events.empty());
    auto window = all_questions(base);
    window.erase(window.begin(),
                 window.begin() + static_cast<std::ptrdiff_t>(unfitted_questions));
    pipeline.fit(base, window);
  }

  static std::vector<forum::QuestionId> all_questions(
      const forum::Dataset& dataset) {
    std::vector<forum::QuestionId> ids(dataset.num_questions());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<forum::QuestionId>(i);
    }
    return ids;
  }
};

std::vector<forum::UserId> all_users(const forum::Dataset& dataset) {
  std::vector<forum::UserId> users(dataset.num_users());
  for (std::size_t i = 0; i < users.size(); ++i) {
    users[i] = static_cast<forum::UserId>(i);
  }
  return users;
}

void ingest_in_chunks(LiveState& live, std::span<const ForumEvent> events,
                      std::size_t chunk) {
  for (std::size_t begin = 0; begin < events.size(); begin += chunk) {
    live.ingest(events.subspan(begin, std::min(chunk, events.size() - begin)));
  }
}

void expect_spans_equal(std::span<const double> actual,
                        std::span<const double> expected, const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << what << "[" << i << "]";
  }
}

std::string fresh_dir(const std::string& name) {
  // PID-suffixed so concurrent test invocations (e.g. two ctest trees at
  // once) cannot stomp each other's WAL files.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (name + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(StreamLive, ReplayEquivalenceIsBitIdentical) {
  LiveCase c;
  const forum::Dataset pristine_base = c.base;  // before in-place mutation

  LiveState live(c.pipeline, c.base);
  ingest_in_chunks(live, c.events, 23);  // several refresh cycles
  ASSERT_EQ(live.events_applied(), c.events.size());

  // Reference: rebuild the dataset from the applied log and derive feature
  // state from scratch, with the topic corpus pinned to the fit horizon so
  // its LDA trains on exactly the documents the live extractor trained on.
  const forum::Dataset rebuilt =
      dataset_from_events(pristine_base, live.event_log());
  features::ExtractorConfig config = fast_pipeline_config().extractor;
  config.topic_corpus_cutoff_hours = kCutoffHours;
  const auto window = LiveCase::all_questions(rebuilt);
  const features::FeatureExtractor reference(rebuilt, window, config);

  const features::FeatureExtractor& streamed = c.pipeline.extractor();
  ASSERT_EQ(streamed.global_median_response(),
            reference.global_median_response());

  for (forum::UserId u = 0; u < rebuilt.num_users(); ++u) {
    const auto& live_stats = streamed.user_stats(u);
    const auto& ref_stats = reference.user_stats(u);
    ASSERT_EQ(live_stats.answers_provided, ref_stats.answers_provided) << u;
    ASSERT_EQ(live_stats.questions_asked, ref_stats.questions_asked) << u;
    ASSERT_EQ(live_stats.net_answer_votes, ref_stats.net_answer_votes) << u;
    ASSERT_EQ(live_stats.answered, ref_stats.answered) << u;
    ASSERT_EQ(live_stats.participated, ref_stats.participated) << u;
    expect_spans_equal(live_stats.answer_votes, ref_stats.answer_votes,
                       "answer_votes");
    expect_spans_equal(live_stats.answered_votes, ref_stats.answered_votes,
                       "answered_votes");
    expect_spans_equal(live_stats.response_times, ref_stats.response_times,
                       "response_times");
    expect_spans_equal(live_stats.topic_distribution,
                       ref_stats.topic_distribution, "topic_distribution");
    ASSERT_EQ(streamed.median_response_time(u),
              reference.median_response_time(u))
        << u;
  }

  for (forum::QuestionId q = 0; q < rebuilt.num_questions(); ++q) {
    expect_spans_equal(streamed.question_topics(q),
                       reference.question_topics(q), "question_topics");
    ASSERT_EQ(streamed.question_word_length(q),
              reference.question_word_length(q));
    ASSERT_EQ(streamed.question_code_length(q),
              reference.question_code_length(q));
  }

  for (const auto& [live_graph, ref_graph] :
       {std::pair(&streamed.qa_graph(), &reference.qa_graph()),
        std::pair(&streamed.dense_graph(), &reference.dense_graph())}) {
    ASSERT_EQ(live_graph->edge_count(), ref_graph->edge_count());
    for (graph::NodeId n = 0; n < ref_graph->node_count(); ++n) {
      const auto live_n = live_graph->neighbors(n);
      const auto ref_n = ref_graph->neighbors(n);
      ASSERT_EQ(std::vector(live_n.begin(), live_n.end()),
                std::vector(ref_n.begin(), ref_n.end()))
          << "node " << n;
    }
  }
  expect_spans_equal(streamed.qa_closeness(), reference.qa_closeness(),
                     "qa_closeness");
  expect_spans_equal(streamed.qa_betweenness(), reference.qa_betweenness(),
                     "qa_betweenness");
  expect_spans_equal(streamed.dense_closeness(), reference.dense_closeness(),
                     "dense_closeness");
  expect_spans_equal(streamed.dense_betweenness(),
                     reference.dense_betweenness(), "dense_betweenness");

  // And the composed end product: full feature vectors, base and streamed
  // questions alike.
  std::vector<forum::QuestionId> probes = {
      0, static_cast<forum::QuestionId>(pristine_base.num_questions() - 1)};
  for (forum::QuestionId q = static_cast<forum::QuestionId>(
           pristine_base.num_questions());
       q < rebuilt.num_questions(); q += 3) {
    probes.push_back(q);
  }
  for (forum::UserId u = 0; u < rebuilt.num_users(); u += 7) {
    for (const forum::QuestionId q : probes) {
      expect_spans_equal(streamed.features(u, q), reference.features(u, q),
                         "features");
    }
  }
}

// Sampled + incremental centrality keeps the replay invariant for the four
// centrality arrays and the features built on them: the pivot set is a pure
// function of (seed, node count, epoch 0), and the engine's incremental
// refresh is bit-identical to a rebuild over the same pivots — so streaming
// with dirty-region refreshes must land exactly where a fresh sampled build
// over the mutated dataset lands.
TEST(StreamLiveSampled, ReplayMatchesFreshSampledBuild) {
  core::PipelineConfig sampled_config = fast_pipeline_config();
  sampled_config.extractor.centrality.mode = graph::CentralityMode::kSampled;
  sampled_config.extractor.centrality.num_pivots = 24;
  LiveCase c(sampled_config);
  const forum::Dataset pristine_base = c.base;

  LiveState live(c.pipeline, c.base);
  ingest_in_chunks(live, c.events, 17);  // several incremental refreshes
  ASSERT_EQ(live.events_applied(), c.events.size());

  const forum::Dataset rebuilt =
      dataset_from_events(pristine_base, live.event_log());
  features::ExtractorConfig config = sampled_config.extractor;
  config.topic_corpus_cutoff_hours = kCutoffHours;
  const auto window = LiveCase::all_questions(rebuilt);
  const features::FeatureExtractor reference(rebuilt, window, config);

  const features::FeatureExtractor& streamed = c.pipeline.extractor();
  expect_spans_equal(streamed.qa_closeness(), reference.qa_closeness(),
                     "sampled qa_closeness");
  expect_spans_equal(streamed.qa_betweenness(), reference.qa_betweenness(),
                     "sampled qa_betweenness");
  expect_spans_equal(streamed.dense_closeness(), reference.dense_closeness(),
                     "sampled dense_closeness");
  expect_spans_equal(streamed.dense_betweenness(),
                     reference.dense_betweenness(), "sampled dense_betweenness");
  for (forum::UserId u = 0; u < rebuilt.num_users(); u += 5) {
    for (forum::QuestionId q = 0; q < rebuilt.num_questions(); q += 11) {
      expect_spans_equal(streamed.features(u, q), reference.features(u, q),
                         "sampled features");
    }
  }
}

#if FORUMCAST_OBS_ENABLED
TEST(StreamLive, CentralityRefreshIsTimedWithTracingOff) {
  obs::TraceCollector::global().set_enabled(false);
  const auto refresh_histogram = [] {
    for (const auto& [name, histogram] :
         obs::MetricsRegistry::global().snapshot().histograms) {
      if (name == "features.centrality_refresh_ms") return histogram;
    }
    return obs::Histogram::Snapshot{};
  };
  const obs::Histogram::Snapshot before = refresh_histogram();
  LiveCase c;
  LiveState live(c.pipeline, c.base);
  ingest_in_chunks(live, c.events, 64);
  const obs::Histogram::Snapshot after = refresh_histogram();
  ASSERT_GT(after.total_count, before.total_count);
  EXPECT_GT(after.sum, before.sum);
}
#endif  // FORUMCAST_OBS_ENABLED

TEST(StreamLive, FineGrainedInvalidationMatchesColdCache) {
  LiveCase c;
  LiveState live(c.pipeline, c.base);
  serve::BatchScorer warm(c.pipeline);
  live.attach(&warm);

  const auto users = all_users(c.base);
  const forum::QuestionId base_q =
      static_cast<forum::QuestionId>(c.base.num_questions() / 2);
  live.score(warm, base_q, users);  // warm the cache before any event

  std::span<const ForumEvent> events(c.events);
  std::size_t begin = 0;
  while (begin < events.size()) {
    const std::size_t n = std::min<std::size_t>(31, events.size() - begin);
    live.ingest(events.subspan(begin, n));
    begin += n;

    // The surviving warm cache must now be indistinguishable from a scorer
    // built cold over the updated state — and from the scalar path.
    serve::BatchScorer cold(c.pipeline);
    std::vector<forum::QuestionId> probes = {base_q};
    if (c.base.num_questions() > events.size()) {
      probes.push_back(
          static_cast<forum::QuestionId>(c.base.num_questions() - 1));
    }
    for (const forum::QuestionId q : probes) {
      const auto warm_scores = live.score(warm, q, users);
      const auto cold_scores = live.score(cold, q, users);
      for (std::size_t i = 0; i < users.size(); ++i) {
        ASSERT_EQ(warm_scores[i].answer_probability,
                  cold_scores[i].answer_probability)
            << "q=" << q << " u=" << users[i] << " after " << begin;
        ASSERT_EQ(warm_scores[i].votes, cold_scores[i].votes);
        ASSERT_EQ(warm_scores[i].delay_hours, cold_scores[i].delay_hours);
      }
      const auto scalar = live.predict(users[7], q);
      ASSERT_EQ(warm_scores[7].answer_probability, scalar.answer_probability);
      ASSERT_EQ(warm_scores[7].votes, scalar.votes);
      ASSERT_EQ(warm_scores[7].delay_hours, scalar.delay_hours);
    }
  }

  const auto stats = warm.cache_stats();
  EXPECT_GT(stats.invalidations, 0u);
  EXPECT_GT(stats.blocks_dropped, 0u);
  // Fine-grained: across the whole run some warmed state survived events
  // (hits after the first ingest would be impossible under drop-everything
  // if every event batch dropped all blocks — the streamed workload contains
  // batches that touch only a few users).
  live.detach(&warm);
}

TEST(StreamLive, DirtyUserKeepsSurvivingBlockAndMatchesColdCache) {
  // A vote on someone else's thread moves its answerer's aggregates and
  // pair terms but nothing about question q: q's block carries no per-user
  // data, so invalidation keeps the very same block, and rows assembled
  // from it read the answerer's new pair terms from the extractor.
  LiveCase c;
  LiveState live(c.pipeline, c.base);
  serve::BatchScorer warm(c.pipeline);
  live.attach(&warm);
  const auto users = all_users(c.base);
  const forum::QuestionId q =
      static_cast<forum::QuestionId>(c.base.num_questions() / 2);
  const forum::UserId asker = c.base.thread(q).question.creator;

  // The first other thread with an answer by someone other than q's asker
  // who has also answered a third question (so TopicWeightedAnswerVotes,
  // a pair term, moves with the vote).
  forum::QuestionId voted = 0;
  forum::UserId u = 0;
  bool found = false;
  for (forum::QuestionId t = 0; t < c.base.num_questions() && !found; ++t) {
    const auto& answers = c.base.thread(t).answers;
    if (t == q || answers.empty()) continue;
    const forum::UserId creator = answers[0].creator;
    if (creator != asker &&
        c.pipeline.extractor().user_stats(creator).answered.size() >= 2) {
      voted = t;
      u = creator;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  serve::FeatureCache cache;
  cache.sync(c.pipeline.extractor(), c.base, c.pipeline.generation());
  const auto block = cache.question_block(q);
  const std::size_t dim = cache.dimension();
  std::vector<double> before(dim);
  cache.assemble(u, *block, before);
  live.score(warm, q, users);

  ForumEvent vote;
  vote.type = EventType::kVote;
  vote.timestamp_hours = c.events.front().timestamp_hours;
  vote.question = voted;
  vote.answer_index = 0;
  vote.vote_delta = 7;
  live.ingest({{vote}});
  serve::CacheInvalidation dirty;
  dirty.users = {u};
  cache.invalidate(dirty);

  EXPECT_EQ(cache.question_block(q).get(), block.get());
  serve::FeatureCache cold_cache;
  cold_cache.sync(c.pipeline.extractor(), c.base, c.pipeline.generation());
  const auto cold_block = cold_cache.question_block(q);
  std::vector<double> row(dim), cold_row(dim);
  for (const forum::UserId v : users) {
    cache.assemble(v, *block, row);
    cold_cache.assemble(v, *cold_block, cold_row);
    ASSERT_EQ(row, cold_row) << "u=" << v;
  }
  cache.assemble(u, *block, row);
  EXPECT_NE(row, before) << "the vote must move u's row for the test to bite";
  EXPECT_EQ(row, c.pipeline.extractor().features(u, q));

  // The attached scorer saw the same invalidation: its next score of q is a
  // cache hit and equals a cold scorer's bit for bit.
  const auto hits_before = warm.cache_stats().question_hits;
  const auto warm_scores = live.score(warm, q, users);
  EXPECT_EQ(warm.cache_stats().question_hits, hits_before + 1);
  serve::BatchScorer cold(c.pipeline);
  const auto cold_scores = live.score(cold, q, users);
  for (std::size_t i = 0; i < users.size(); ++i) {
    ASSERT_EQ(warm_scores[i].answer_probability,
              cold_scores[i].answer_probability);
    ASSERT_EQ(warm_scores[i].votes, cold_scores[i].votes);
    ASSERT_EQ(warm_scores[i].delay_hours, cold_scores[i].delay_hours);
  }
  live.detach(&warm);
}

TEST(StreamLive, KillAndRestoreReplaysWalToSameDigest) {
  const std::string dir = fresh_dir("live_wal");
  std::uint64_t digest_before = 0;
  std::uint64_t seq_before = 0;
  std::size_t event_count = 0;
  {
    LiveCase c;
    LiveStateConfig config;
    config.wal_dir = dir;
    config.snapshot_every = 40;  // several compactions over the stream
    LiveState live(c.pipeline, c.base, config);
    ingest_in_chunks(live, c.events, 17);
    digest_before = live.digest();
    seq_before = live.last_seq();
    event_count = live.events_applied();
    ASSERT_GT(seq_before, 0u);
  }  // "crash": the process state is gone, only wal_dir remains

  ASSERT_TRUE(std::filesystem::exists(snapshot_path(dir)));
  {
    LiveCase c;  // identical fresh fit of the base
    LiveState restored(c.pipeline, c.base, {.wal_dir = dir});
    EXPECT_EQ(restored.events_recovered(), event_count);
    EXPECT_EQ(restored.last_seq(), seq_before);
    EXPECT_EQ(restored.digest(), digest_before);
    EXPECT_FALSE(restored.recovered_truncated_tail());
  }

  // A crash mid-append leaves a torn record; recovery still reaches the
  // digest of everything durable before it, and may keep ingesting.
  {
    std::ofstream wal(wal_path(dir), std::ios::binary | std::ios::app);
    wal << "\x40\x00\x00\x00to";  // length=64 header, payload missing
  }
  std::uint64_t digest_with_extra = 0;
  {
    LiveCase c;
    LiveState restored(c.pipeline, c.base, {.wal_dir = dir});
    EXPECT_TRUE(restored.recovered_truncated_tail());
    EXPECT_EQ(restored.digest(), digest_before);

    ForumEvent extra;
    extra.type = EventType::kVote;
    extra.question = 0;
    extra.answer_index = -1;
    extra.vote_delta = 1;
    extra.timestamp_hours = c.events.back().timestamp_hours + 1.0;
    restored.ingest({{extra}});
    digest_with_extra = restored.digest();
    EXPECT_NE(digest_with_extra, digest_before);
  }
  // The torn record was truncated before the append, so the extra event is
  // reachable: a fresh recovery sees a clean log ending in it.
  {
    LiveCase c;
    LiveState restored(c.pipeline, c.base, {.wal_dir = dir});
    EXPECT_FALSE(restored.recovered_truncated_tail());
    EXPECT_EQ(restored.events_recovered(), event_count + 1);
    EXPECT_EQ(restored.last_seq(), seq_before + 1);
    EXPECT_EQ(restored.digest(), digest_with_extra);
  }
}

TEST(StreamLive, ModelBundleRestoresServingWithoutRefit) {
  // Full cold-start recovery: wal_dir alone (model bundle + snapshot + WAL)
  // must reconstruct the pre-crash serving state in a process that never
  // fits — predictions bit-equal to the ones served before the crash.
  const std::string dir = fresh_dir("live_bundle");
  const forum::QuestionId probe = 5;
  std::uint64_t digest_before = 0;
  std::vector<core::Prediction> before;
  {
    LiveCase c;
    LiveStateConfig config;
    config.wal_dir = dir;
    config.snapshot_every = 40;
    LiveState live(c.pipeline, c.base, config);
    EXPECT_EQ(live.model_ref(), "model.fcm");
    ASSERT_TRUE(std::filesystem::exists(model_bundle_path(dir)));
    ingest_in_chunks(live, c.events, 23);
    digest_before = live.digest();
    for (forum::UserId u : all_users(c.base)) {
      before.push_back(live.predict(u, probe));
    }
  }  // "crash"

  {
    // Fresh process: rebuild only the base dataset (deterministic), then
    // restore the model from the bundle instead of refitting.
    forum::GeneratorConfig gen;
    gen.num_users = 120;
    gen.num_questions = 130;
    gen.seed = 4111;
    const auto full = forum::generate_forum(gen).dataset.preprocessed();
    auto split = split_events_after(full, kCutoffHours);
    forum::Dataset base = std::move(split.base);

    std::ifstream in(model_bundle_path(dir), std::ios::binary);
    ASSERT_TRUE(in.good());
    core::ForecastPipeline pipeline = core::ForecastPipeline::load(in, base);
    ASSERT_TRUE(pipeline.fitted());

    LiveState restored(pipeline, base, {.wal_dir = dir});
    EXPECT_EQ(restored.digest(), digest_before);
    EXPECT_FALSE(restored.recovered_truncated_tail());
    const auto users = all_users(base);
    ASSERT_EQ(users.size(), before.size());
    for (std::size_t i = 0; i < users.size(); ++i) {
      const core::Prediction p = restored.predict(users[i], probe);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(p.answer_probability),
                std::bit_cast<std::uint64_t>(before[i].answer_probability))
          << "user " << users[i];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(p.votes),
                std::bit_cast<std::uint64_t>(before[i].votes))
          << "user " << users[i];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(p.delay_hours),
                std::bit_cast<std::uint64_t>(before[i].delay_hours))
          << "user " << users[i];
    }
  }
}

TEST(StreamLive, SnapshotsReferenceTheModelBundle) {
  const std::string dir = fresh_dir("live_snapshot_ref");
  {
    LiveCase c;
    LiveStateConfig config;
    config.wal_dir = dir;
    LiveState live(c.pipeline, c.base, config);
    live.ingest(std::span<const ForumEvent>(c.events).first(5));
    live.snapshot_now();
  }
  const SnapshotData snapshot = read_snapshot(snapshot_path(dir));
  ASSERT_TRUE(snapshot.present);
  EXPECT_EQ(snapshot.model_ref, "model.fcm");

  // Opting out leaves no bundle and no reference.
  const std::string bare = fresh_dir("live_no_bundle");
  {
    LiveCase c;
    LiveStateConfig config;
    config.wal_dir = bare;
    config.save_model_bundle = false;
    LiveState live(c.pipeline, c.base, config);
    EXPECT_EQ(live.model_ref(), "");
    live.ingest(std::span<const ForumEvent>(c.events).first(5));
    live.snapshot_now();
  }
  EXPECT_FALSE(std::filesystem::exists(model_bundle_path(bare)));
  EXPECT_EQ(read_snapshot(snapshot_path(bare)).model_ref, "");
}

TEST(StreamLive, RejectsInvalidEventsButKeepsThePrefix) {
  // Question 0 is left out of the fit window, so answer-level events on it
  // are invalid; the prefix below never touches it.
  LiveCase c(fast_pipeline_config(), /*unfitted_questions=*/1);
  LiveState live(c.pipeline, c.base);

  std::vector<ForumEvent> batch(c.events.begin(), c.events.begin() + 3);
  for (const ForumEvent& event : batch) {
    ASSERT_TRUE(event.type == EventType::kNewQuestion || event.question != 0);
  }
  ForumEvent stale = c.events[3];
  stale.timestamp_hours = 1.0;  // far before the fitted horizon
  batch.push_back(stale);
  EXPECT_THROW(live.ingest(batch), util::CheckError);
  EXPECT_EQ(live.events_applied(), 3u);  // the valid prefix stuck

  ForumEvent bad_user;
  bad_user.type = EventType::kNewQuestion;
  bad_user.timestamp_hours = c.events.back().timestamp_hours + 1.0;
  bad_user.user = static_cast<forum::UserId>(c.base.num_users());
  EXPECT_THROW(live.ingest({{bad_user}}), util::CheckError);

  ForumEvent bad_question;
  bad_question.type = EventType::kNewAnswer;
  bad_question.timestamp_hours = c.events.back().timestamp_hours + 1.0;
  bad_question.user = 0;
  bad_question.question =
      static_cast<forum::QuestionId>(c.base.num_questions() + 999);
  EXPECT_THROW(live.ingest({{bad_question}}), util::CheckError);

  // Answer-level events on a question outside the fit window are refused
  // before they touch the dataset: the thread keeps its answers and votes.
  ASSERT_FALSE(c.base.thread(0).answers.empty());
  const std::size_t answers_before = c.base.thread(0).answers.size();
  const auto votes_before = c.base.thread(0).answers[0].net_votes;

  ForumEvent outside_answer;
  outside_answer.type = EventType::kNewAnswer;
  outside_answer.timestamp_hours = c.events.back().timestamp_hours + 1.0;
  outside_answer.user = 1;
  outside_answer.question = 0;
  EXPECT_THROW(live.ingest({{outside_answer}}), util::CheckError);

  ForumEvent outside_vote;
  outside_vote.type = EventType::kVote;
  outside_vote.timestamp_hours = c.events.back().timestamp_hours + 1.0;
  outside_vote.question = 0;
  outside_vote.answer_index = 0;
  outside_vote.vote_delta = 1;
  EXPECT_THROW(live.ingest({{outside_vote}}), util::CheckError);

  EXPECT_EQ(c.base.thread(0).answers.size(), answers_before);
  EXPECT_EQ(c.base.thread(0).answers[0].net_votes, votes_before);

  ForumEvent gap = c.events[4];
  gap.seq = 99;  // not last_seq + 1
  EXPECT_THROW(live.ingest({{gap}}), util::CheckError);

  // Still consistent: digest equals a clean replay of the same 3 events.
  LiveCase c2(fast_pipeline_config(), /*unfitted_questions=*/1);
  LiveState clean(c2.pipeline, c2.base);
  clean.ingest(std::span<const ForumEvent>(c2.events).first(3));
  EXPECT_EQ(live.digest(), clean.digest());
}

TEST(StreamStress, ConcurrentIngestAndScoring) {
  LiveCase c;
  LiveState live(c.pipeline, c.base);
  serve::BatchScorer scorer(c.pipeline);
  live.attach(&scorer);

  const auto users = all_users(c.base);
  const std::size_t base_questions = c.base.num_questions();
  std::atomic<bool> done{false};

  std::thread ingester([&] {
    ingest_in_chunks(live, c.events, 8);
    done.store(true);
  });
  std::vector<std::thread> scoring;
  for (int t = 0; t < 3; ++t) {
    scoring.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!done.load()) {
        const auto q = static_cast<forum::QuestionId>(i++ % base_questions);
        const auto scores = live.score(scorer, q, users);
        ASSERT_EQ(scores.size(), users.size());
        live.predict(users[i % users.size()], q);
      }
    });
  }
  ingester.join();
  for (auto& thread : scoring) thread.join();

  // After the dust settles the warm scorer equals a cold rebuild.
  serve::BatchScorer cold(c.pipeline);
  for (const forum::QuestionId q :
       {forum::QuestionId{0},
        static_cast<forum::QuestionId>(base_questions - 1),
        static_cast<forum::QuestionId>(c.base.num_questions() - 1)}) {
    const auto warm_scores = live.score(scorer, q, users);
    const auto cold_scores = live.score(cold, q, users);
    for (std::size_t i = 0; i < users.size(); ++i) {
      ASSERT_EQ(warm_scores[i].answer_probability,
                cold_scores[i].answer_probability);
      ASSERT_EQ(warm_scores[i].votes, cold_scores[i].votes);
      ASSERT_EQ(warm_scores[i].delay_hours, cold_scores[i].delay_hours);
    }
  }
  live.detach(&scorer);
}

TEST(StreamLive, DigestTracksEveryEvent) {
  LiveCase c;
  LiveState live(c.pipeline, c.base);
  std::uint64_t previous = live.digest();
  for (std::size_t i = 0; i < std::min<std::size_t>(10, c.events.size());
       ++i) {
    live.ingest(std::span<const ForumEvent>(c.events).subspan(i, 1));
    const std::uint64_t current = live.digest();
    EXPECT_NE(current, previous) << "event " << i << " left no trace";
    previous = current;
  }
}

}  // namespace
}  // namespace forumcast::stream
