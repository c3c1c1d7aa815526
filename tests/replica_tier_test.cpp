// Replicated read-serving tier end to end over real sockets: a primary
// server shipping its WAL, followers bootstrapping over the wire and from
// local state, digest-divergence resync, model-swap propagation, and
// cluster-sharded scoring parity.
//
// Everything uses exact equality: LiveState is a deterministic function of
// (base fit, event sequence), so a follower that applied the same events on
// the same bundle digests identically — bit for bit — to the primary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/pipeline.hpp"
#include "forum/generator.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/replication.hpp"
#include "net/server.hpp"
#include "replica/cluster.hpp"
#include "replica/follower.hpp"
#include "replica/primary.hpp"
#include "serve/batch_scorer.hpp"
#include "stream/live_state.hpp"
#include "stream/split.hpp"
#include "util/check.hpp"

namespace forumcast::replica {
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

std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (name + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

bool wait_until(const std::function<bool()>& pred, double timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double, std::milli>(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// One raw base + event stream + fitted bundle, built once (fitting
// dominates runtime). Tests never mutate these: every serving state is
// rebuilt from (a copy of base, bundle bytes), exactly like the daemons.
struct TierFixture {
  forum::Dataset base;
  std::vector<stream::ForumEvent> events;
  std::string bundle_bytes;

  static TierFixture& instance() {
    static TierFixture fixture;
    return fixture;
  }

  /// The fixture bundle as a file (for wire-driven hot swaps).
  const std::string& bundle_path() {
    if (bundle_path_.empty()) {
      bundle_path_ = (std::filesystem::temp_directory_path() /
                      ("replica_tier_model." + std::to_string(::getpid()) +
                       ".fcm"))
                         .string();
      std::ofstream out(bundle_path_, std::ios::binary);
      out << bundle_bytes;
      FORUMCAST_CHECK(out.good());
    }
    return bundle_path_;
  }

 private:
  TierFixture() {
    forum::GeneratorConfig config;
    config.num_users = 120;
    config.num_questions = 130;
    config.seed = 4111;
    const auto full = forum::generate_forum(config).dataset.preprocessed();
    auto split = stream::split_events_after(full, kCutoffHours);
    base = std::move(split.base);
    events = std::move(split.events);
    FORUMCAST_CHECK(events.size() >= 50);

    core::ForecastPipeline pipeline(fast_pipeline_config());
    std::vector<forum::QuestionId> window(base.num_questions());
    for (std::size_t i = 0; i < window.size(); ++i) {
      window[i] = static_cast<forum::QuestionId>(i);
    }
    pipeline.fit(base, window);
    std::ostringstream out;
    pipeline.save(out);
    bundle_bytes = std::move(out).str();
  }

  std::string bundle_path_;
};

/// A real replica::Primary over a WAL dir, served by a replication-enabled
/// Server on ephemeral loopback ports. An optional source wrapper lets a
/// test interpose on the replication stream (fault injection) by
/// overriding config.replication.
class PrimaryHarness {
 public:
  using SourceWrapper =
      std::function<std::unique_ptr<net::ReplicationSource>(
          net::ReplicationSource*)>;

  explicit PrimaryHarness(const std::string& wal_dir,
                          SourceWrapper wrap_source = nullptr)
      : primary_(TierFixture::instance().base,
                 TierFixture::instance().bundle_bytes, {.wal_dir = wal_dir}) {
    net::ServerConfig config;
    primary_.configure(config);
    if (wrap_source) {
      source_ = wrap_source(config.replication);
      config.replication = source_.get();
    }
    server_ = std::make_unique<net::Server>(
        primary_.node().scorer(), TierFixture::instance().base, config);
    loop_ = std::thread([this] { server_->run(); });
  }

  ~PrimaryHarness() {
    server_->stop();
    if (loop_.joinable()) loop_.join();
  }

  void ingest(std::span<const stream::ForumEvent> events,
              std::size_t chunk = 37) {
    for (std::size_t begin = 0; begin < events.size(); begin += chunk) {
      primary_.ingest(
          events.subspan(begin, std::min(chunk, events.size() - begin)));
      server_->notify_replication();
    }
  }

  std::shared_ptr<NodeState> current() { return primary_.node().current(); }
  std::uint64_t last_seq() { return primary_.node().applied_seq(); }
  std::uint64_t digest() { return current()->live->digest(); }
  serve::BatchScorer& scorer() { return primary_.node().scorer(); }
  std::uint16_t port() const { return server_->port(); }
  std::uint16_t replication_port() const {
    return server_->replication_port();
  }

 private:
  Primary primary_;
  std::unique_ptr<net::ReplicationSource> source_;
  std::unique_ptr<net::Server> server_;
  std::thread loop_;
};

/// A follower with its tail loop on a background thread; stops on
/// destruction. `serve` additionally puts a read-serving Server over it.
class FollowerHarness {
 public:
  FollowerHarness(std::uint16_t primary_replication_port, std::string wal_dir,
                  bool serve = false)
      : follower_(make_follower(primary_replication_port, wal_dir)) {
    tail_ = std::thread([this] { follower_->run(); });
    if (serve) {
      FORUMCAST_CHECK(follower_->wait_serving(30000.0));
      net::ServerConfig config;
      follower_->configure(config);
      server_ = std::make_unique<net::Server>(follower_->scorer(),
                                              TierFixture::instance().base,
                                              config);
      loop_ = std::thread([this] { server_->run(); });
    }
  }

  ~FollowerHarness() { stop(); }

  void stop() {
    if (server_) server_->stop();
    if (loop_.joinable()) loop_.join();
    if (follower_) follower_->stop();
    if (tail_.joinable()) tail_.join();
  }

  Follower& follower() { return *follower_; }
  std::uint16_t port() const { return server_->port(); }

 private:
  static std::unique_ptr<Follower> make_follower(std::uint16_t port,
                                                 std::string wal_dir) {
    FollowerConfig config;
    config.primary_port = port;
    config.wal_dir = std::move(wal_dir);
    config.heartbeat_ms = 25.0;  // fast idle cycle keeps the tests snappy
    config.client.connect_timeout_ms = 2000.0;
    config.client.connect_retries = 3;
    config.client.retry_backoff_ms = 20.0;
    return std::make_unique<Follower>(TierFixture::instance().base,
                                      std::move(config));
  }

  std::unique_ptr<Follower> follower_;
  std::thread tail_;
  std::unique_ptr<net::Server> server_;
  std::thread loop_;
};

std::vector<forum::UserId> user_range(forum::UserId count) {
  std::vector<forum::UserId> users(count);
  for (forum::UserId u = 0; u < count; ++u) users[u] = u;
  return users;
}

TEST(ReplicaTier, FollowerBootstrapsOverTheWireAndConvergesBitExact) {
  TierFixture& fixture = TierFixture::instance();
  PrimaryHarness primary(fresh_dir("tier_boot_primary"));
  FollowerHarness follower_harness(primary.replication_port(),
                                   fresh_dir("tier_boot_follower"));
  Follower& follower = follower_harness.follower();

  // Wire bootstrap: the follower had no local state, so serving appears
  // only after the bundle fetch completes.
  ASSERT_TRUE(follower.wait_serving(30000.0));
  EXPECT_EQ(follower.applied_seq(), 0u);

  // Stream the whole event log through the primary while the follower
  // tails; it must land on the same seq with the same digest.
  primary.ingest(fixture.events);
  const std::uint64_t head = primary.last_seq();
  ASSERT_EQ(head, fixture.events.size());
  ASSERT_TRUE(follower.wait_applied(head, 30000.0));
  EXPECT_EQ(follower.applied_seq(), head);
  ASSERT_TRUE(wait_until([&] { return follower.status().digest ==
                                      primary.digest(); },
                         10000.0));
  EXPECT_EQ(follower.divergences(), 0u);

  // Read parity through both scorers: a follower read is bit-identical to
  // the primary's for every question the stream created.
  const auto users = user_range(64);
  const auto last_question = static_cast<forum::QuestionId>(
      primary.current()->dataset.num_questions() - 1);
  const auto from_primary = primary.scorer().score(last_question, users);
  const auto from_follower = follower.scorer().score(last_question, users);
  ASSERT_EQ(from_primary.size(), from_follower.size());
  for (std::size_t i = 0; i < from_primary.size(); ++i) {
    EXPECT_EQ(from_primary[i].answer_probability,
              from_follower[i].answer_probability);
    EXPECT_EQ(from_primary[i].votes, from_follower[i].votes);
    EXPECT_EQ(from_primary[i].delay_hours, from_follower[i].delay_hours);
  }

  // Lag gauges: caught up means zero lag in the follower's own report.
  const net::ReplicaStatusInfo status = follower.status();
  EXPECT_EQ(status.role, 2);
  EXPECT_EQ(status.lag_events, 0u);
  EXPECT_EQ(status.lag_ms, 0.0);
}

TEST(ReplicaTier, StatusIsServedOverTheWire) {
  TierFixture& fixture = TierFixture::instance();
  PrimaryHarness primary(fresh_dir("tier_status_primary"));
  primary.ingest(fixture.events);
  FollowerHarness follower_harness(primary.replication_port(),
                                   fresh_dir("tier_status_follower"),
                                   /*serve=*/true);
  ASSERT_TRUE(follower_harness.follower().wait_applied(primary.last_seq(),
                                                       30000.0));

  net::Client primary_client(primary.port());
  const net::ReplicaStatusInfo primary_status =
      primary_client.replica_status();
  EXPECT_EQ(primary_status.role, 1);
  EXPECT_EQ(primary_status.applied_seq, primary.last_seq());

  net::Client follower_client(follower_harness.port());
  const net::ReplicaStatusInfo follower_status =
      follower_client.replica_status();
  EXPECT_EQ(follower_status.role, 2);
  EXPECT_EQ(follower_status.applied_seq, primary_status.applied_seq);
  EXPECT_EQ(follower_status.digest, primary_status.digest);
}

TEST(ReplicaTier, FollowerRestartRecoversLocallyThenCatchesUp) {
  TierFixture& fixture = TierFixture::instance();
  PrimaryHarness primary(fresh_dir("tier_restart_primary"));
  const std::string follower_dir = fresh_dir("tier_restart_follower");

  const std::size_t half = fixture.events.size() / 2;
  std::uint64_t digest_at_half = 0;
  {
    FollowerHarness harness(primary.replication_port(), follower_dir);
    ASSERT_TRUE(harness.follower().wait_serving(30000.0));
    primary.ingest(std::span<const stream::ForumEvent>(fixture.events)
                       .subspan(0, half));
    ASSERT_TRUE(harness.follower().wait_applied(half, 30000.0));
    digest_at_half = harness.follower().status().digest;
    // Destruction stands in for the crash: no clean handoff is exchanged
    // with the primary, and everything the follower knows is in wal_dir.
  }

  // Primary keeps moving while the follower is down.
  primary.ingest(
      std::span<const stream::ForumEvent>(fixture.events).subspan(half));

  FollowerHarness restarted(primary.replication_port(), follower_dir);
  // Local bootstrap happens in the constructor, before any network round
  // trip — the WAL it wrote before the crash restores seq `half` exactly.
  EXPECT_EQ(restarted.follower().applied_seq(), half);
  EXPECT_EQ(restarted.follower().status().digest, digest_at_half);

  ASSERT_TRUE(restarted.follower().wait_applied(primary.last_seq(), 30000.0));
  ASSERT_TRUE(wait_until(
      [&] { return restarted.follower().status().digest == primary.digest(); },
      10000.0));
  EXPECT_EQ(restarted.follower().divergences(), 0u);
  EXPECT_EQ(restarted.follower().resyncs(), 0u);
}

/// Interposes on the primary's replication stream and corrupts the first
/// head-digest it ships — the injected fault the divergence check must
/// catch.
class CorruptingSource : public net::ReplicationSource {
 public:
  explicit CorruptingSource(net::ReplicationSource* inner) : inner_(inner) {}

  std::uint64_t head_seq() override { return inner_->head_seq(); }
  std::string bundle_bytes() override { return inner_->bundle_bytes(); }
  net::WalSpan events_after(std::uint64_t after_seq,
                            std::size_t max_bytes) override {
    net::WalSpan span = inner_->events_after(after_seq, max_bytes);
    if (span.has_digest && !corrupted_) {
      corrupted_ = true;
      span.digest ^= 0xdeadbeefULL;
    }
    return span;
  }

  bool corrupted() const { return corrupted_; }

 private:
  net::ReplicationSource* inner_;
  bool corrupted_ = false;
};

TEST(ReplicaTier, DigestDivergenceTriggersResyncAndReconverges) {
  TierFixture& fixture = TierFixture::instance();
  CorruptingSource* corrupting = nullptr;
  PrimaryHarness primary(
      fresh_dir("tier_diverge_primary"), [&](net::ReplicationSource* inner) {
        auto source = std::make_unique<CorruptingSource>(inner);
        corrupting = source.get();
        return source;
      });
  primary.ingest(fixture.events);

  FollowerHarness harness(primary.replication_port(),
                          fresh_dir("tier_diverge_follower"));
  Follower& follower = harness.follower();

  // The first head span carries the poisoned digest: the follower must
  // fault, count the divergence, and resync rather than keep serving a
  // state it cannot vouch for.
  ASSERT_TRUE(wait_until([&] { return follower.resyncs() >= 1; }, 30000.0));
  EXPECT_TRUE(corrupting->corrupted());
  EXPECT_GE(follower.divergences(), 1u);

  // Resync = wipe + re-fetch bundle + restream from 0, with true digests
  // from then on; the tier converges bit-exact.
  ASSERT_TRUE(follower.wait_applied(primary.last_seq(), 30000.0));
  ASSERT_TRUE(wait_until(
      [&] { return follower.status().digest == primary.digest(); }, 10000.0));
  EXPECT_EQ(follower.divergences(), 1u);  // exactly the injected fault
}

TEST(ReplicaTier, ModelSwapPropagatesWithReadsInFlight) {
  TierFixture& fixture = TierFixture::instance();
  PrimaryHarness primary(fresh_dir("tier_swap_primary"));
  primary.ingest(fixture.events);
  FollowerHarness harness(primary.replication_port(),
                          fresh_dir("tier_swap_follower"),
                          /*serve=*/true);
  Follower& follower = harness.follower();
  ASSERT_TRUE(follower.wait_applied(primary.last_seq(), 30000.0));
  const std::uint64_t swap_epoch_before = follower.scorer().swap_epoch();

  // Hammer the follower's serving port throughout the swap: zero dropped
  // reads is the guarantee the aliasing install gives.
  std::atomic<bool> stop_reads{false};
  std::atomic<std::uint64_t> reads_ok{0};
  std::thread reader([&] {
    net::Client client(harness.port());
    const auto users = user_range(32);
    while (!stop_reads.load(std::memory_order_acquire)) {
      const auto predictions = client.score(0, users);
      FORUMCAST_CHECK(predictions.size() == users.size());
      reads_ok.fetch_add(1, std::memory_order_acq_rel);
    }
  });

  // Swap the primary over the wire (same weights, new install): the
  // follower must observe the broadcast, re-fetch, and rebuild.
  net::Client control(primary.port());
  const net::Message response =
      control.swap_model(TierFixture::instance().bundle_path());
  EXPECT_GT(response.swap_epoch, 0u);

  ASSERT_TRUE(wait_until([&] { return follower.swaps_applied() >= 1; },
                         30000.0));
  ASSERT_TRUE(wait_until(
      [&] { return follower.scorer().swap_epoch() > swap_epoch_before; },
      10000.0));

  stop_reads.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads_ok.load(), 0u);

  // Post-swap parity: the rebuilt follower state (new bundle + local log
  // replay) digests identically to the primary's rebuilt state.
  ASSERT_TRUE(follower.wait_applied(primary.last_seq(), 30000.0));
  ASSERT_TRUE(wait_until(
      [&] { return follower.status().digest == primary.digest(); }, 10000.0));
  EXPECT_EQ(follower.divergences(), 0u);
}

TEST(ReplicaTier, ClusterShardedScoringMatchesSingleNode) {
  TierFixture& fixture = TierFixture::instance();
  PrimaryHarness primary(fresh_dir("tier_cluster_primary"));
  primary.ingest(fixture.events);
  FollowerHarness harness(primary.replication_port(),
                          fresh_dir("tier_cluster_follower"),
                          /*serve=*/true);
  ASSERT_TRUE(harness.follower().wait_applied(primary.last_seq(), 30000.0));
  ASSERT_TRUE(wait_until(
      [&] { return harness.follower().status().digest == primary.digest(); },
      10000.0));

  ClusterClient cluster(
      {Endpoint{"primary", "127.0.0.1", primary.port()},
       Endpoint{"f1", "127.0.0.1", harness.port()}});
  // Both nodes must actually own users in a 96-user batch (ring balance),
  // so this exercises reassembly across real shard responses.
  const auto users = user_range(96);
  bool primary_owns = false;
  bool follower_owns = false;
  for (const forum::UserId user : users) {
    (cluster.owner(user).name == "primary" ? primary_owns : follower_owns) =
        true;
  }
  EXPECT_TRUE(primary_owns);
  EXPECT_TRUE(follower_owns);

  const auto sharded = cluster.score(0, users);
  const auto direct = primary.scorer().score(0, users);
  ASSERT_EQ(sharded.size(), direct.size());
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(sharded[i].answer_probability, direct[i].answer_probability);
    EXPECT_EQ(sharded[i].votes, direct[i].votes);
    EXPECT_EQ(sharded[i].delay_hours, direct[i].delay_hours);
  }
}

}  // namespace
}  // namespace forumcast::replica
