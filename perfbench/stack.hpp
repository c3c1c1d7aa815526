// The system under test, brought up the way `forumcast ingest --listen
// --replisten` brings up a replicated primary: generated forum → fit →
// bundle save → serving state built bundle-first (base copy + bundle load +
// LiveState over a WAL dir) → BatchScorer → net::Server with the
// replication listener, plus one real `forumcast replica` follower process.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "forum/dataset.hpp"
#include "net/server.hpp"
#include "replica/publisher.hpp"
#include "serve/batch_scorer.hpp"
#include "stream/event.hpp"
#include "stream/live_state.hpp"

namespace perfbench {

struct StackConfig {
  std::string cli;   ///< the forumcast CLI binary
  std::string work;  ///< fresh directory for this stack's files
  std::uint64_t seed = 1;
  std::size_t users = 2000;
  std::size_t questions = 3000;
  double events_after_day = 25.0;
  std::size_t snapshot_every = 1024;
  std::size_t fit_threads = 4;
};

/// The fixed, reduced-epoch fit every workload uses (sampled + incremental
/// centrality, so live ingest refreshes stay cheap).
forumcast::core::PipelineConfig fit_config(std::size_t fit_threads);

/// Primary serving state, rebuilt the daemon's way: a copy of the raw base,
/// the bundle loaded against it, and a LiveState that recovers wal_dir.
struct PrimaryState {
  forumcast::forum::Dataset dataset;
  forumcast::core::ForecastPipeline pipeline;
  std::unique_ptr<forumcast::stream::LiveState> live;
};

std::shared_ptr<PrimaryState> build_primary_state(
    const forumcast::forum::Dataset& base, const std::string& bundle_bytes,
    const forumcast::stream::LiveStateConfig& live_config);

/// Seconds spent in each set-up phase.
struct SetupTimes {
  double generate_s = 0.0;
  double fit_s = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;  ///< bundle load + LiveState construction
  double follower_s = 0.0;  ///< follower start → serving port published
};

class Stack {
 public:
  /// Runs every set-up phase; throws on failure (after stopping whatever
  /// already started).
  explicit Stack(StackConfig config);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Stops the follower process, then drains the server. Idempotent.
  void stop_serving();

  const StackConfig& config() const { return config_; }
  const SetupTimes& times() const { return times_; }
  const forumcast::forum::Dataset& base() const { return base_; }
  const std::vector<forumcast::stream::ForumEvent>& events() const { return events_; }
  const std::string& bundle() const { return bundle_; }
  forumcast::stream::LiveStateConfig live_config() const;

  PrimaryState& state() { return *state_; }
  forumcast::stream::LiveState& live() { return *state_->live; }
  forumcast::serve::BatchScorer& scorer() { return *scorer_; }
  forumcast::net::Server& server() { return *server_; }
  std::uint16_t port() const { return server_->port(); }
  std::uint16_t follower_port() const { return follower_port_; }
  std::string follower_wal_dir() const { return config_.work + "/follower_wal"; }

  /// Scores `question` × `users` in-process under the LiveState read lock
  /// (fills the serving caches).
  void warm(forumcast::forum::QuestionId question,
            const std::vector<forumcast::forum::UserId>& users);

  /// Releases the serving state (after stop_serving) so a recovery can
  /// rebuild it from the WAL directory alone.
  void release_state();

 private:
  StackConfig config_;
  SetupTimes times_;
  forumcast::forum::Dataset base_;
  std::vector<forumcast::stream::ForumEvent> events_;
  std::string bundle_;
  std::shared_ptr<PrimaryState> state_;
  std::unique_ptr<forumcast::serve::BatchScorer> scorer_;
  std::unique_ptr<forumcast::replica::Publisher> publisher_;
  std::unique_ptr<forumcast::net::Server> server_;
  std::thread loop_;
  pid_t follower_ = -1;
  std::uint16_t follower_port_ = 0;
};

}  // namespace perfbench
