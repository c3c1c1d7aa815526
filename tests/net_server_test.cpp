// Serving daemon end to end over real sockets: score parity with the
// in-process engine, routing parity, admission control, malformed-stream
// handling, concurrent load, hot swap under load, graceful drain.
//
// Everything runs against one loopback server on an ephemeral port. Parity
// checks use exact equality: the wire carries raw IEEE-754 bits and the
// micro-batcher's coalescing is purely an execution-layout change, so a
// wire score equals pipeline.predict bit for bit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/recommender.hpp"
#include "forum/generator.hpp"
#include "net/batcher.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/obs.hpp"
#include "serve/batch_scorer.hpp"
#include "util/check.hpp"

namespace forumcast::net {
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

// One small fitted pipeline shared by every test here (fitting dominates
// runtime). Tests never mutate it: hot-swap tests swap in a *copy* restored
// from a bundle, which leaves this instance untouched.
struct NetFixture {
  forum::Dataset dataset;
  std::shared_ptr<const core::ForecastPipeline> pipeline;

  static NetFixture& instance() {
    static NetFixture fixture;
    return fixture;
  }

  /// A bundle of the fixture pipeline on disk (for wire-driven hot swaps).
  const std::string& bundle_path() {
    if (bundle_path_.empty()) {
      bundle_path_ =
          (std::filesystem::temp_directory_path() / "net_test_model.fcm")
              .string();
      std::ofstream out(bundle_path_, std::ios::binary);
      pipeline->save(out);
      FORUMCAST_CHECK(out.good());
    }
    return bundle_path_;
  }

 private:
  NetFixture() : dataset(make_dataset()) {
    auto fitted = std::make_shared<core::ForecastPipeline>(fast_pipeline_config());
    fitted->fit(dataset, dataset.questions_in_days(1, 25));
    pipeline = std::move(fitted);
  }

  static forum::Dataset make_dataset() {
    forum::GeneratorConfig config;
    config.num_users = 150;
    config.num_questions = 140;
    config.seed = 611;
    return forum::generate_forum(config).dataset.preprocessed();
  }

  std::string bundle_path_;
};

/// A live server on an ephemeral port with its event loop on a background
/// thread. Stops and joins on destruction.
class ServerHarness {
 public:
  explicit ServerHarness(BatcherConfig batcher = {}) {
    NetFixture& fixture = NetFixture::instance();
    scorer_ = std::make_unique<serve::BatchScorer>(fixture.pipeline);
    ServerConfig config;
    config.batcher = batcher;
    server_ =
        std::make_unique<Server>(*scorer_, fixture.dataset, config);
    loop_ = std::thread([this] { server_->run(); });
  }

  ~ServerHarness() {
    server_->stop();
    if (loop_.joinable()) loop_.join();
  }

  std::uint16_t port() const { return server_->port(); }
  serve::BatchScorer& scorer() { return *scorer_; }
  Server& server() { return *server_; }
  /// Joins the loop thread without stopping — for shutdown-over-the-wire
  /// tests that expect run() to return on its own.
  void join() { loop_.join(); }

 private:
  std::unique_ptr<serve::BatchScorer> scorer_;
  std::unique_ptr<Server> server_;
  std::thread loop_;
};

/// Stalls every batcher worker that takes the read guard until open() — the
/// way a writer holding the live-state lock stalls scoring. With the worker
/// parked inside a batch, the queue fills deterministically.
class WorkerGate {
 public:
  std::function<std::shared_ptr<void>()> hook() {
    return [this]() -> std::shared_ptr<void> {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      changed_.notify_all();
      changed_.wait(lock, [this] { return open_; });
      return nullptr;
    };
  }

  /// Blocks until a worker is parked at the gate.
  void wait_entered() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [this] { return entered_ > 0; });
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    changed_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  int entered_ = 0;
  bool open_ = false;
};

MicroBatcher::Item score_item(std::uint64_t conn_id, std::uint64_t request_id,
                              forum::QuestionId question,
                              std::vector<forum::UserId> users) {
  MicroBatcher::Item item;
  item.conn_id = conn_id;
  item.request.kind = MessageKind::kScoreRequest;
  item.request.request_id = request_id;
  item.request.question = question;
  item.request.users = std::move(users);
  return item;
}

std::vector<forum::UserId> user_range(forum::UserId count) {
  std::vector<forum::UserId> users(count);
  for (forum::UserId u = 0; u < count; ++u) users[u] = u;
  return users;
}

TEST(NetServer, ScoreParityBitExactWithInProcessPaths) {
  NetFixture& fixture = NetFixture::instance();
  ServerHarness harness;
  Client client(harness.port());

  const auto users = user_range(64);
  const auto last = static_cast<forum::QuestionId>(
      fixture.dataset.num_questions() - 1);
  for (const forum::QuestionId q :
       {forum::QuestionId{0}, static_cast<forum::QuestionId>(last / 2), last}) {
    const auto wire = client.score(q, users);
    const auto direct = harness.scorer().score(q, users);
    ASSERT_EQ(wire.size(), direct.size());
    for (std::size_t i = 0; i < wire.size(); ++i) {
      EXPECT_EQ(wire[i].answer_probability, direct[i].answer_probability);
      EXPECT_EQ(wire[i].votes, direct[i].votes);
      EXPECT_EQ(wire[i].delay_hours, direct[i].delay_hours);
      const core::Prediction scalar = fixture.pipeline->predict(users[i], q);
      EXPECT_EQ(wire[i].answer_probability, scalar.answer_probability);
      EXPECT_EQ(wire[i].votes, scalar.votes);
      EXPECT_EQ(wire[i].delay_hours, scalar.delay_hours);
    }
  }
}

TEST(NetServer, RouteParityWithInProcessRecommender) {
  NetFixture& fixture = NetFixture::instance();
  ServerHarness harness;
  Client client(harness.port());

  const auto users = user_range(48);
  const forum::QuestionId question = 5;
  const Message wire = client.route(question, 0, users);

  const core::Recommender recommender(*fixture.pipeline,
                                      harness.scorer().predict_fn());
  const core::RecommendationResult direct =
      recommender.recommend(question, users);

  EXPECT_EQ(wire.feasible, direct.feasible);
  ASSERT_EQ(wire.routes.size(), direct.ranking.size());
  for (std::size_t i = 0; i < wire.routes.size(); ++i) {
    EXPECT_EQ(wire.routes[i].user, direct.ranking[i].user);
    EXPECT_EQ(wire.routes[i].probability, direct.ranking[i].probability);
    EXPECT_EQ(wire.routes[i].prediction.answer_probability,
              direct.ranking[i].prediction.answer_probability);
  }

  // top_k truncates the same ranking.
  const Message top3 = client.route(question, 3, users);
  ASSERT_LE(top3.routes.size(), 3u);
  for (std::size_t i = 0; i < top3.routes.size(); ++i) {
    EXPECT_EQ(top3.routes[i].user, wire.routes[i].user);
  }
}

TEST(NetServer, HealthReportsServingState) {
  NetFixture& fixture = NetFixture::instance();
  ServerHarness harness;
  Client client(harness.port());
  const HealthInfo health = client.health();
  EXPECT_EQ(health.num_questions, fixture.dataset.num_questions());
  EXPECT_EQ(health.num_users, fixture.dataset.num_users());
  EXPECT_EQ(health.model_generation, fixture.pipeline->generation());
  EXPECT_EQ(health.swap_epoch, 0u);
}

TEST(NetServer, MetricsSnapshotTravelsAsJson) {
  ServerHarness harness;
  Client client(harness.port());
  client.score(0, user_range(4));
  const std::string json = client.metrics_json();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
#if FORUMCAST_OBS_ENABLED
  EXPECT_NE(json.find("net.requests"), std::string::npos);
  EXPECT_NE(json.find("net.request_ms"), std::string::npos);
#endif
}

TEST(NetServer, BadRequestsGetTypedErrors) {
  NetFixture& fixture = NetFixture::instance();
  ServerHarness harness;
  Client client(harness.port());

  const auto out_of_range = static_cast<forum::QuestionId>(
      fixture.dataset.num_questions());
  EXPECT_THROW(
      {
        try {
          client.score(out_of_range, user_range(2));
        } catch (const RpcError& error) {
          EXPECT_EQ(error.code(), ErrorCode::kBadRequest);
          throw;
        }
      },
      RpcError);

  const std::vector<forum::UserId> bad_user = {
      static_cast<forum::UserId>(fixture.dataset.num_users())};
  EXPECT_THROW(client.score(0, bad_user), RpcError);
  EXPECT_THROW(client.score(0, {}), RpcError);
  EXPECT_THROW(client.route(out_of_range, 0, user_range(2)), RpcError);

  // The connection survives bad requests — only malformed framing closes it.
  EXPECT_EQ(client.score(0, user_range(2)).size(), 2u);
}

TEST(NetServer, BackpressurePipelinedPastQueueCap) {
  // Tiny queue, stalled worker: the worker parks at the gate inside its
  // first batch, so the queue admits at most 4 more and a burst of 50
  // pipelined requests must split into some accepted and some refused with
  // kQueueFull — and every single one gets exactly one response.
  WorkerGate gate;
  BatcherConfig batcher;
  batcher.max_queue = 4;
  batcher.max_batch_requests = 64;
  batcher.read_guard = gate.hook();
  ServerHarness harness(batcher);
  Client client(harness.port());

  constexpr int kBurst = 50;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    Message request;
    request.kind = MessageKind::kScoreRequest;
    request.request_id = static_cast<std::uint64_t>(i + 1);
    request.question = 0;
    request.users = {0, 1};
    append_frame(burst, request);
  }
  client.send_raw(burst);

  // Nothing is scored while the gate is shut, so the first frame back is a
  // refusal; only then let the worker go.
  const Message first = client.read_frame();
  EXPECT_EQ(first.kind, MessageKind::kErrorResponse);
  EXPECT_EQ(first.error, ErrorCode::kQueueFull);
  gate.open();

  int scored = 0;
  int rejected = 1;
  for (int i = 1; i < kBurst; ++i) {
    const Message response = client.read_frame();
    if (response.kind == MessageKind::kScoreResponse) {
      EXPECT_EQ(response.predictions.size(), 2u);
      ++scored;
    } else {
      ASSERT_EQ(response.kind, MessageKind::kErrorResponse);
      EXPECT_EQ(response.error, ErrorCode::kQueueFull);
      ++rejected;
    }
  }
  EXPECT_EQ(scored + rejected, kBurst);
  EXPECT_GE(scored, 4);     // everything admitted was answered
  EXPECT_GE(rejected, 1);   // the cap actually bit
}

TEST(NetServer, MalformedFrameGetsErrorThenClose) {
  ServerHarness harness;
  Client client(harness.port());

  // Valid header shape, corrupted payload byte → CRC mismatch.
  Message request;
  request.kind = MessageKind::kHealthRequest;
  request.request_id = 1;
  std::string frame;
  append_frame(frame, request);
  frame[frame.size() - 1] ^= 0x40;
  client.send_raw(frame);

  const Message error = client.read_frame();
  EXPECT_EQ(error.kind, MessageKind::kErrorResponse);
  EXPECT_EQ(error.error, ErrorCode::kMalformedFrame);
  EXPECT_EQ(error.request_id, 0u);  // the id was not parseable

  Message ignored;
  EXPECT_FALSE(client.try_read_frame(ignored));  // server closed

  // The server itself is unharmed.
  Client fresh(harness.port());
  EXPECT_EQ(fresh.score(0, user_range(2)).size(), 2u);
}

TEST(NetServer, OversizedAnnouncedLengthClosesConnection) {
  ServerHarness harness;
  Client client(harness.port());
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::string header(sizeof(huge), '\0');
  std::memcpy(header.data(), &huge, sizeof(huge));
  client.send_raw(header);

  const Message error = client.read_frame();
  EXPECT_EQ(error.kind, MessageKind::kErrorResponse);
  EXPECT_EQ(error.error, ErrorCode::kMalformedFrame);
  Message ignored;
  EXPECT_FALSE(client.try_read_frame(ignored));
}

TEST(NetServer, AbandonedPartialFrameDoesNotWedgeTheServer) {
  ServerHarness harness;
  {
    Client torn(harness.port());
    Message request;
    request.kind = MessageKind::kHealthRequest;
    request.request_id = 9;
    std::string frame;
    append_frame(frame, request);
    torn.send_raw(std::string_view(frame).substr(0, frame.size() / 2));
  }  // disconnects with half a frame buffered server-side
  Client fresh(harness.port());
  EXPECT_EQ(fresh.health().num_users, NetFixture::instance().dataset.num_users());
}

TEST(NetServer, ResponseKindFromClientIsRejected) {
  ServerHarness harness;
  Client client(harness.port());
  Message bogus;
  bogus.kind = MessageKind::kScoreResponse;
  bogus.request_id = 3;
  std::string frame;
  append_frame(frame, bogus);
  client.send_raw(frame);
  const Message response = client.read_frame();
  EXPECT_EQ(response.kind, MessageKind::kErrorResponse);
  EXPECT_EQ(response.error, ErrorCode::kUnknownKind);
}

TEST(NetServer, ConcurrentClientsAllScoreCorrectly) {
  ServerHarness harness;
  const auto reference =
      harness.scorer().score(3, user_range(8));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      try {
        Client client(harness.port());
        const auto users = user_range(8);
        for (int i = 0; i < kPerThread; ++i) {
          const auto wire = client.score(3, users);
          for (std::size_t j = 0; j < wire.size(); ++j) {
            if (wire[j].answer_probability !=
                reference[j].answer_probability) {
              failures.fetch_add(1);
            }
          }
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(harness.server().requests_seen(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(NetServer, HotSwapUnderLoadDropsNothingAndKeepsParity) {
  NetFixture& fixture = NetFixture::instance();
  ServerHarness harness;
  const auto reference = harness.scorer().score(1, user_range(16));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> completed{0};
  std::thread load([&] {
    try {
      Client client(harness.port());
      const auto users = user_range(16);
      while (!stop.load()) {
        const auto wire = client.score(1, users);
        for (std::size_t j = 0; j < wire.size(); ++j) {
          if (wire[j].votes != reference[j].votes) failures.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    } catch (const std::exception&) {
      failures.fetch_add(1);
    }
  });

  Client control(harness.port());
  for (int s = 1; s <= 3; ++s) {
    while (completed.load() < s * 5 && failures.load() == 0) {
      std::this_thread::yield();
    }
    const Message swapped = control.swap_model(fixture.bundle_path());
    EXPECT_EQ(swapped.swap_epoch, static_cast<std::uint64_t>(s));
    EXPECT_EQ(control.health().swap_epoch, static_cast<std::uint64_t>(s));
  }

  stop.store(true);
  load.join();
  // The swapped-in bundle restores the same fitted state, so scores stayed
  // bit-identical across all three swaps and no request errored.
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(completed.load(), 10);
}

TEST(NetServer, SwapFromUnreadablePathFailsCleanly) {
  ServerHarness harness;
  Client client(harness.port());
  EXPECT_THROW(
      {
        try {
          client.swap_model("/nonexistent/model.fcm");
        } catch (const RpcError& error) {
          EXPECT_EQ(error.code(), ErrorCode::kInternal);
          throw;
        }
      },
      RpcError);
  // Serving continues on the old model.
  EXPECT_EQ(client.health().swap_epoch, 0u);
  EXPECT_EQ(client.score(0, user_range(2)).size(), 2u);
}

TEST(NetServer, ShutdownDrainsPipelinedRequests) {
  ServerHarness harness;
  Client client(harness.port());

  // Pipeline scoring work and a shutdown behind it in one write: the drain
  // guarantee says every admitted request is answered before the loop exits.
  constexpr int kPipelined = 20;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    Message request;
    request.kind = MessageKind::kScoreRequest;
    request.request_id = static_cast<std::uint64_t>(i + 1);
    request.question = 2;
    request.users = {0, 1, 2};
    append_frame(burst, request);
  }
  Message shutdown;
  shutdown.kind = MessageKind::kShutdownRequest;
  shutdown.request_id = 999;
  append_frame(burst, shutdown);
  client.send_raw(burst);

  int scored = 0;
  bool shutdown_acked = false;
  for (int i = 0; i < kPipelined + 1; ++i) {
    const Message response = client.read_frame();
    if (response.kind == MessageKind::kScoreResponse) ++scored;
    if (response.kind == MessageKind::kShutdownResponse) shutdown_acked = true;
  }
  EXPECT_EQ(scored, kPipelined);
  EXPECT_TRUE(shutdown_acked);
  harness.join();  // run() returns on its own after the drain
}

#if FORUMCAST_OBS_ENABLED
TEST(NetBatcher, CoalescesConcurrentRequestsIntoOneBatch) {
  // Submit 8 same-question requests directly while the worker is stalled on
  // an earlier request: once it is free they must come out of a single
  // BatchScorer pass (one net.score_batches increment besides the stalled
  // request's own), each with its own slice.
  NetFixture& fixture = NetFixture::instance();
  serve::BatchScorer scorer(fixture.pipeline);

  const std::uint64_t batches_before =
      obs::MetricsRegistry::global().counter("net.score_batches").value();

  std::mutex mutex;
  std::condition_variable done;
  std::vector<Message> responses;

  WorkerGate gate;
  BatcherConfig config;
  config.max_batch_requests = 8;
  // One worker: the test stalls it, and a second idle worker would take
  // the queued requests instead of letting them coalesce.
  config.threads = 1;
  config.read_guard = gate.hook();
  MicroBatcher batcher(
      scorer, fixture.dataset, config,
      [&](std::uint64_t conn_id, std::string frame) {
        const DecodeFrameResult decoded = decode_frame(frame);
        ASSERT_FALSE(decoded.corrupt);
        if (conn_id == 0) return;  // the request that stalled the worker
        std::lock_guard<std::mutex> lock(mutex);
        responses.push_back(decoded.message);
        done.notify_one();
      });

  ASSERT_TRUE(batcher.try_submit(score_item(0, 100, 3, {0, 1})));
  gate.wait_entered();
  for (int i = 0; i < 8; ++i) {
    const auto u = static_cast<forum::UserId>(i);
    ASSERT_TRUE(batcher.try_submit(
        score_item(1, static_cast<std::uint64_t>(i + 1), 4,
                   {u, static_cast<forum::UserId>(u + 1)})));
  }
  gate.open();
  {
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return responses.size() == 8; });
  }
  batcher.stop();

  const std::uint64_t batches_after =
      obs::MetricsRegistry::global().counter("net.score_batches").value();
  EXPECT_EQ(batches_after - batches_before, 2u);

  for (const Message& response : responses) {
    ASSERT_EQ(response.kind, MessageKind::kScoreResponse);
    ASSERT_EQ(response.predictions.size(), 2u);
    const auto i = static_cast<forum::UserId>(response.request_id - 1);
    const std::vector<forum::UserId> users = {i, static_cast<forum::UserId>(i + 1)};
    const auto direct = scorer.score(4, users);
    EXPECT_EQ(response.predictions[0].answer_probability,
              direct[0].answer_probability);
    EXPECT_EQ(response.predictions[1].answer_probability,
              direct[1].answer_probability);
  }
}
#endif  // FORUMCAST_OBS_ENABLED

TEST(NetBatcher, QueueBoundRefusesBeyondCapacity) {
  NetFixture& fixture = NetFixture::instance();
  serve::BatchScorer scorer(fixture.pipeline);
  WorkerGate gate;  // stall the worker so the queue stays full
  BatcherConfig config;
  config.max_queue = 2;
  config.max_batch_requests = 64;
  config.read_guard = gate.hook();
  std::atomic<int> completions{0};
  MicroBatcher batcher(scorer, fixture.dataset, config,
                       [&](std::uint64_t, std::string) {
                         completions.fetch_add(1);
                       });
  auto make_item = [](int i) {
    return score_item(1, static_cast<std::uint64_t>(i + 1), 0, {0});
  };
  int admitted = 0;
  int refused = 0;
  for (int i = 0; i < 16; ++i) {
    if (batcher.try_submit(make_item(i))) {
      ++admitted;
    } else {
      ++refused;
    }
  }
  EXPECT_GE(refused, 1);
  EXPECT_GE(admitted, 2);
  gate.open();
  batcher.stop();  // drains every admitted item
  EXPECT_EQ(completions.load(), admitted);
  // After stop, nothing is admitted.
  EXPECT_FALSE(batcher.try_submit(make_item(99)));
}

TEST(NetBatcher, StopDrainsEveryAdmittedRequest) {
  NetFixture& fixture = NetFixture::instance();
  serve::BatchScorer scorer(fixture.pipeline);
  WorkerGate gate;
  BatcherConfig config;
  config.read_guard = gate.hook();
  std::atomic<int> completions{0};
  MicroBatcher batcher(scorer, fixture.dataset, config,
                       [&](std::uint64_t, std::string) {
                         completions.fetch_add(1);
                       });
  int admitted = 0;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(batcher.try_submit(
        score_item(1, static_cast<std::uint64_t>(i + 1), 1, {0, 1})));
    ++admitted;
  }
  gate.wait_entered();
  // stop() refuses admissions before it joins the stalled worker, so once a
  // probe is refused the stop is in progress with requests still queued.
  std::thread stopper([&] { batcher.stop(); });
  while (batcher.try_submit(score_item(2, 0, 1, {0}))) ++admitted;
  gate.open();
  stopper.join();
  EXPECT_EQ(completions.load(), admitted);
}

}  // namespace
}  // namespace forumcast::net
