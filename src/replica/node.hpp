// The serving node every replica runs, primary and follower alike: a copy of
// the raw base dataset, the model bundle loaded against it, a LiveState over
// wal_dir (which replays the log found there), and the BatchScorer a
// net::Server scores through. One builder for both roles keeps a primary,
// its swap rebuilds and every follower bootstrap bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "core/pipeline.hpp"
#include "forum/dataset.hpp"
#include "net/protocol.hpp"
#include "serve/batch_scorer.hpp"
#include "stream/live_state.hpp"

namespace forumcast::replica {

/// One rebuildable unit of serving state. The pipeline references the
/// dataset *member*, so the whole struct lives on the heap behind a
/// shared_ptr.
struct NodeState {
  forum::Dataset dataset;
  core::ForecastPipeline pipeline;
  std::unique_ptr<stream::LiveState> live;
};

/// The bytes of the model bundle file at `path`; throws util::CheckError
/// when it cannot be opened.
std::string read_bundle_file(const std::string& path);

/// Copies `base`, loads `bundle_bytes` against the copy and builds a
/// LiveState over live_config.wal_dir.
std::shared_ptr<NodeState> build_node_state(
    const forum::Dataset& base, const std::string& bundle_bytes,
    const stream::LiveStateConfig& live_config);

class Node {
 public:
  /// `base` must outlive the node. No state exists until the first
  /// install().
  Node(const forum::Dataset& base, stream::LiveStateConfig live_config,
       serve::BatchScorerConfig scorer_config = {});
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// The installed state; null before the first install().
  std::shared_ptr<NodeState> current() const;

  /// Builds a state from `bundle_bytes`, publishes it, swaps the scorer
  /// onto it (creating the scorer on the first install), attaches the new
  /// LiveState to the scorer and detaches the old one. The scorer holds an
  /// aliasing pointer into the state, so a read still on the old pipeline
  /// keeps the whole old state alive. Callers serialize install() against
  /// ingest into current().
  void install(const std::string& bundle_bytes);

  /// Valid after the first install().
  serve::BatchScorer& scorer();

  /// BatcherConfig::read_guard: the token pins the current state (an
  /// install cannot free it) and holds its LiveState reader lock (ingest
  /// cannot mutate under the read). Null before the first install().
  std::function<std::shared_ptr<void>()> read_guard_fn();

  /// Last applied seq of the current state (0 before the first install()).
  std::uint64_t applied_seq() const;

  /// Fills *digest with the current state's digest iff that state sits at
  /// exactly `seq` across the read; false once ingest has moved past it.
  bool digest_at(std::uint64_t seq, std::uint64_t* digest) const;

  /// `role` with a consistent (applied_seq, digest) pair: seq is read
  /// before and after the digest, repeating until the two agree.
  /// head_seq = applied_seq; lag fields stay zero.
  net::ReplicaStatusInfo status(std::uint8_t role) const;

 private:
  const forum::Dataset& base_;
  const stream::LiveStateConfig live_config_;
  const serve::BatchScorerConfig scorer_config_;

  mutable std::mutex mutex_;  ///< guards state_ and the scorer's creation
  std::shared_ptr<NodeState> state_;
  std::unique_ptr<serve::BatchScorer> scorer_;
};

}  // namespace forumcast::replica
