// Primary replica: a Node that owns the durable log. It ingests the event
// stream into the node's WAL, ships that WAL to followers through a
// Publisher, and hot-swaps by reinstalling the node from a new bundle. Like
// Follower it owns neither the net::Server nor the thread feeding events:
// the caller runs both and calls Server::notify_replication() after each
// ingest().
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "net/server.hpp"
#include "replica/node.hpp"
#include "replica/publisher.hpp"
#include "stream/event.hpp"

namespace forumcast::replica {

class Primary {
 public:
  /// Installs `bundle_bytes` over live_config.wal_dir (recovering any log
  /// found there), then opens the Publisher on that directory. `base` must
  /// outlive the primary.
  Primary(const forum::Dataset& base, const std::string& bundle_bytes,
          stream::LiveStateConfig live_config,
          serve::BatchScorerConfig scorer_config = {});
  Primary(const Primary&) = delete;
  Primary& operator=(const Primary&) = delete;

  /// Fills config.replication (the Publisher), status_fn (role 1),
  /// batcher.read_guard and batcher.swap_fn (swap_from_file). The primary
  /// must outlive the server built from `config`.
  void configure(net::ServerConfig& config);

  /// Applies `events` to the current state, serialized against swaps (a
  /// WAL replay racing a concurrent append would tear the durable head).
  std::size_t ingest(std::span<const stream::ForumEvent> events);

  /// Rebuilds the node from the bundle at `path` plus the WAL and returns
  /// the post-swap (generation, swap_epoch). The rebuild's LiveState
  /// rewrites wal_dir/model.fcm, so followers re-fetching after the
  /// kModelSwap broadcast get the new model.
  std::pair<std::uint64_t, std::uint64_t> swap_from_file(
      const std::string& path);

  Node& node() { return node_; }

 private:
  Node node_;
  std::mutex ingest_mutex_;
  std::optional<Publisher> publisher_;
};

}  // namespace forumcast::replica
