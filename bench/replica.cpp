// Replication-tier throughput for src/replica/: consistent-hash owner
// lookups, primary ingest with a durable WAL (the shipping side's write
// path), and follower apply — a fresh state built from the bundle tailing
// the primary's WAL through WalReader and ingesting every record, which is
// the replay a follower runs on bootstrap and (minus the socket) the work
// it does per shipped batch. items_per_second on BM_FollowerApply feeds the
// BENCH_REPLICA_MIN_EPS guard in tools/run_bench.sh; the JSON report lands
// in BENCH_replica.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "forum/generator.hpp"
#include "replica/node.hpp"
#include "replica/ring.hpp"
#include "stream/live_state.hpp"
#include "stream/split.hpp"
#include "stream/wal.hpp"

namespace {

using namespace forumcast;

// One generated forum, one fit, one fully-ingested primary WAL — built on
// first use and shared by every benchmark (fitting dominates setup cost).
struct ReplicaFixture {
  forum::Dataset base;
  std::vector<stream::ForumEvent> events;
  std::string bundle_bytes;
  std::filesystem::path primary_wal_dir;

  static ReplicaFixture& instance() {
    static ReplicaFixture fixture;
    return fixture;
  }

 private:
  ReplicaFixture() {
    forum::GeneratorConfig generator;
    generator.num_users = 300;
    generator.num_questions = 800;
    generator.mean_extra_answers = 1.5;
    generator.seed = 77;
    const auto full = forum::generate_forum(generator).dataset.preprocessed();
    auto split = stream::split_events_after(full, 18.0 * 24.0);
    base = std::move(split.base);
    events = std::move(split.events);

    core::PipelineConfig config;
    config.extractor.lda.iterations = 10;
    config.answer.logistic.epochs = 20;
    config.vote.epochs = 10;
    config.timing.epochs = 4;
    config.survival_samples_per_thread = 3;
    config.timing.learn_omega = false;
    config.timing.f_hidden = {20, 10};

    forum::Dataset fit_dataset = base;
    core::ForecastPipeline pipeline(config);
    std::vector<forum::QuestionId> window(fit_dataset.num_questions());
    for (std::size_t i = 0; i < window.size(); ++i) {
      window[i] = static_cast<forum::QuestionId>(i);
    }
    pipeline.fit(fit_dataset, window);
    std::ostringstream out;
    pipeline.save(out);
    bundle_bytes = out.str();

    // The primary's durable log: every event ingested once, WAL kept for
    // the follower-apply benchmark to tail.
    primary_wal_dir =
        std::filesystem::temp_directory_path() / "forumcast_bench_replica_p";
    std::filesystem::remove_all(primary_wal_dir);
    std::filesystem::create_directories(primary_wal_dir);
    auto primary = fresh_state(primary_wal_dir);
    primary->live->ingest(std::span<const stream::ForumEvent>(events));
  }

 public:
  // A serving state rebuilt from (base copy, bundle bytes) by the replica
  // nodes' own builder, so replay cost is the deployed cost.
  std::shared_ptr<replica::NodeState> fresh_state(
      const std::filesystem::path& wal_dir) {
    stream::LiveStateConfig live_config;
    live_config.wal_dir = wal_dir.string();
    return replica::build_node_state(base, bundle_bytes, live_config);
  }
};

// Ring ownership lookups/sec at the deployed vnode count — the per-request
// routing cost a cluster-aware client pays before any socket work.
void BM_RingOwner(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  replica::Ring ring;
  for (std::size_t n = 0; n < nodes; ++n) {
    ring.add_node("replica-" + std::to_string(n));
  }
  std::int64_t looked_up = 0;
  forum::UserId user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.owner(user));
    user = (user + 1) % 100000;
    ++looked_up;
  }
  state.SetItemsProcessed(looked_up);
}
BENCHMARK(BM_RingOwner)->Arg(3)->Arg(8);

// Primary write path: ingest with a durable WAL (buffered appends + one
// fsync per chunk). The shipping side can never stream faster than this.
void BM_PrimaryIngest(benchmark::State& state) {
  auto& fixture = ReplicaFixture::instance();
  const auto chunk = static_cast<std::size_t>(state.range(0));
  const std::span<const stream::ForumEvent> events(fixture.events);
  const auto wal_dir =
      std::filesystem::temp_directory_path() / "forumcast_bench_replica_i";

  std::shared_ptr<replica::NodeState> run;
  std::size_t cursor = events.size();  // force a fresh build on entry
  std::int64_t ingested = 0;
  for (auto _ : state) {
    if (cursor + chunk > events.size()) {
      state.PauseTiming();
      std::filesystem::remove_all(wal_dir);
      std::filesystem::create_directories(wal_dir);
      run = fixture.fresh_state(wal_dir);
      cursor = 0;
      state.ResumeTiming();
    }
    run->live->ingest(events.subspan(cursor, chunk));
    cursor += chunk;
    ingested += static_cast<std::int64_t>(chunk);
  }
  state.SetItemsProcessed(ingested);
  run.reset();
  std::filesystem::remove_all(wal_dir);
}
BENCHMARK(BM_PrimaryIngest)
    ->Arg(64)->Iterations(24)
    ->Unit(benchmark::kMillisecond);

// Follower apply: tail the primary's WAL through WalReader (decode
// included) and ingest every record into a bundle-fresh state, in the
// batch size the wire protocol ships. Each iteration replays the whole
// log; the rebuild between iterations is untimed.
void BM_FollowerApply(benchmark::State& state) {
  auto& fixture = ReplicaFixture::instance();
  const std::size_t batch_cap = 256;
  const std::string shipped = stream::wal_path(fixture.primary_wal_dir.string());
  const auto wal_dir =
      std::filesystem::temp_directory_path() / "forumcast_bench_replica_f";

  std::int64_t applied = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    auto run = fixture.fresh_state(wal_dir);
    stream::WalReader reader(shipped);
    std::vector<stream::ForumEvent> batch;
    state.ResumeTiming();

    while (true) {
      batch.clear();  // poll() appends; each shipped batch starts fresh
      if (reader.poll(batch, batch_cap) == 0) break;
      run->live->ingest(std::span<const stream::ForumEvent>(batch));
      applied += static_cast<std::int64_t>(batch.size());
    }

    state.PauseTiming();
    run.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(applied);
  std::filesystem::remove_all(wal_dir);
}
BENCHMARK(BM_FollowerApply)
    ->Iterations(6)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
