// Follower replica: bootstraps from the primary, tails its WAL stream, and
// serves reads from its own replica::Node (LiveState + BatchScorer).
//
// Lifecycle:
//
//   construct ──► local bootstrap (bundle + WAL in wal_dir, if present)
//   run() ──► connect to the primary's replication port (bounded retry)
//         ──► subscribe from applied_seq; fetch the model bundle over the
//             wire when no local state exists (kSnapshotOffer + chunks)
//         ──► apply kWalBatch spans into LiveState (each also lands in the
//             follower's own WAL, so a kill -9 recovers locally)
//         ──► heartbeat on idle; track the primary's head for lag metrics
//
// Divergence: when a span carries the primary's digest at its last seq and
// the follower's digest disagrees, the follower logs both digests, wipes its local log, re-fetches the bundle, and replays from 0 (resync).
// The serving state stays readable throughout; reads only move to the
// rebuilt state at the atomic install.
//
// Model swap: a kModelSwap broadcast makes the follower re-fetch the bundle
// and Node::install it (base dataset + new bundle + local event log) — the
// same zero-dropped-reads path the primary's swap takes. Exports
// replica.applied_seq / replica.lag_events / replica.lag_ms gauges.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "forum/dataset.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "replica/node.hpp"
#include "serve/batch_scorer.hpp"

namespace forumcast::replica {

struct FollowerConfig {
  std::string primary_host = "127.0.0.1";
  /// The primary's *replication* port (not its serving port).
  std::uint16_t primary_port = 0;
  /// Local durability directory (required): the follower's own WAL +
  /// snapshots + fetched model bundle live here.
  std::string wal_dir;
  std::size_t snapshot_every = 0;
  /// Idle wait per poll; on expiry a heartbeat (applied_seq) goes out.
  double heartbeat_ms = 250.0;
  /// Reconnect backoff after a lost primary; doubles up to max.
  double reconnect_backoff_ms = 100.0;
  double max_backoff_ms = 2000.0;
  /// Transport bounds for the primary connection.
  net::ClientConfig client;
};

class Follower {
 public:
  /// `base` is the shared raw base dataset (the same snapshot the primary
  /// ingests on top of); it must outlive the follower. If wal_dir already
  /// holds a bundle + log (a restart), serving state is rebuilt locally
  /// before any network traffic.
  Follower(const forum::Dataset& base, FollowerConfig config);
  ~Follower();
  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Tails the primary until stop(); run on a dedicated thread. Connection
  /// loss reconnects with doubling backoff and re-subscribes from
  /// applied_seq.
  void run();
  void stop() noexcept;

  /// Blocks (polling) until serving state exists (local bootstrap or wire
  /// fetch done); false on timeout.
  bool wait_serving(double timeout_ms) const;
  /// Blocks until applied_seq() >= seq; false on timeout.
  bool wait_applied(std::uint64_t seq, double timeout_ms) const;

  /// The scorer to build a net::Server over. Valid once wait_serving()
  /// returns true.
  serve::BatchScorer& scorer();

  /// Fills config.status_fn (status()), batcher.read_guard (the node's)
  /// and batcher.swap_fn, which refuses: followers take models only from
  /// the primary's broadcast, never from a client swap (which would fork
  /// the replica from the tier). The follower must outlive the server.
  void configure(net::ServerConfig& config);
  /// Role 2 with the node's (applied_seq, digest) plus the primary's last
  /// reported head and the lag behind it.
  net::ReplicaStatusInfo status() const;

  std::uint64_t applied_seq() const;
  std::uint64_t divergences() const {
    return divergences_.load(std::memory_order_acquire);
  }
  std::uint64_t resyncs() const {
    return resyncs_.load(std::memory_order_acquire);
  }
  std::uint64_t swaps_applied() const {
    return swaps_applied_.load(std::memory_order_acquire);
  }

 private:
  /// In-flight bundle fetch over the replication connection.
  struct Fetch {
    bool active = false;
    /// Resync: wipe the local log before installing; stream restarts at 0.
    bool wipe = false;
    /// kModelSwap-triggered: counts toward swaps_applied().
    bool swap = false;
    bool offer_seen = false;
    std::uint64_t expected_bytes = 0;
    std::string bundle;
  };

  void bootstrap_local();
  /// One connection's lifetime; true = reconnect, false = stopping.
  bool session(net::Client& client);
  void subscribe(net::Client& client, std::uint64_t from_seq,
                 bool want_bundle);
  void handle_batch(net::Client& client, const net::Message& batch);
  void complete_fetch();
  void begin_resync(net::Client& client);
  /// Sets info.head_seq to the primary's last reported head and, when
  /// info.applied_seq is behind it, the lag fields.
  void fill_lag(net::ReplicaStatusInfo& info) const;
  void export_gauges();

  FollowerConfig config_;
  Node node_;

  mutable std::mutex mutex_;  ///< guards head_seq_ and caught_up_time_
  std::uint64_t head_seq_ = 0;  ///< primary's head, as last reported
  /// Last instant applied_seq covered the known head; lag_ms measures from
  /// here while behind (0 while caught up).
  std::chrono::steady_clock::time_point caught_up_time_;

  Fetch fetch_;  ///< touched only by the run() thread

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> divergences_{0};
  std::atomic<std::uint64_t> resyncs_{0};
  std::atomic<std::uint64_t> swaps_applied_{0};
};

}  // namespace forumcast::replica
