#include "replica/primary.hpp"

namespace forumcast::replica {

Primary::Primary(const forum::Dataset& base, const std::string& bundle_bytes,
                 stream::LiveStateConfig live_config,
                 serve::BatchScorerConfig scorer_config)
    : node_(base, live_config, scorer_config) {
  node_.install(bundle_bytes);
  PublisherHooks hooks;
  hooks.digest_at = [this](std::uint64_t seq, std::uint64_t* digest) {
    return node_.digest_at(seq, digest);
  };
  publisher_.emplace(live_config.wal_dir, std::move(hooks));
}

void Primary::configure(net::ServerConfig& config) {
  config.replication = &*publisher_;
  config.status_fn = [this] { return node_.status(1); };
  config.batcher.read_guard = node_.read_guard_fn();
  config.batcher.swap_fn = [this](const std::string& path) {
    return swap_from_file(path);
  };
}

std::size_t Primary::ingest(std::span<const stream::ForumEvent> events) {
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  return node_.current()->live->ingest(events);
}

std::pair<std::uint64_t, std::uint64_t> Primary::swap_from_file(
    const std::string& path) {
  const std::string bytes = read_bundle_file(path);
  std::lock_guard<std::mutex> feed_pause(ingest_mutex_);
  node_.install(bytes);
  serve::BatchScorer& scorer = node_.scorer();
  return {scorer.pipeline()->generation(), scorer.swap_epoch()};
}

}  // namespace forumcast::replica
