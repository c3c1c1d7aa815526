#include "replica/follower.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "stream/event.hpp"
#include "stream/wal.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace forumcast::replica {

namespace {

bool poll_until(const std::function<bool()>& done, double timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double, std::milli>(timeout_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

}  // namespace

Follower::Follower(const forum::Dataset& base, FollowerConfig config)
    : config_(std::move(config)),
      node_(base, {.wal_dir = config_.wal_dir,
                   .snapshot_every = config_.snapshot_every}) {
  FORUMCAST_CHECK_MSG(!config_.wal_dir.empty(),
                      "follower requires a --wal-dir for local durability");
  caught_up_time_ = std::chrono::steady_clock::now();
  bootstrap_local();
}

Follower::~Follower() { stop(); }

void Follower::stop() noexcept { stop_.store(true, std::memory_order_release); }

void Follower::bootstrap_local() {
  // A restart finds the previously fetched bundle + the follower's own WAL
  // in wal_dir; rebuilding from them restores the pre-crash state without
  // touching the network (the tail then resumes from applied_seq).
  const std::string bundle_path = stream::model_bundle_path(config_.wal_dir);
  if (!std::filesystem::exists(bundle_path)) return;
  node_.install(read_bundle_file(bundle_path));
  FORUMCAST_LOG_INFO << "follower recovered locally to seq " << applied_seq();
}

bool Follower::wait_serving(double timeout_ms) const {
  return poll_until([this] { return node_.current() != nullptr; },
                    timeout_ms);
}

bool Follower::wait_applied(std::uint64_t seq, double timeout_ms) const {
  return poll_until([&] { return applied_seq() >= seq; }, timeout_ms);
}

serve::BatchScorer& Follower::scorer() { return node_.scorer(); }

std::uint64_t Follower::applied_seq() const { return node_.applied_seq(); }

void Follower::configure(net::ServerConfig& config) {
  config.status_fn = [this] { return status(); };
  config.batcher.read_guard = node_.read_guard_fn();
  config.batcher.swap_fn =
      [](const std::string&) -> std::pair<std::uint64_t, std::uint64_t> {
    throw std::runtime_error(
        "followers do not accept swaps; swap the primary and the tier "
        "propagates it");
  };
}

net::ReplicaStatusInfo Follower::status() const {
  net::ReplicaStatusInfo info = node_.status(2);
  fill_lag(info);
  return info;
}

void Follower::fill_lag(net::ReplicaStatusInfo& info) const {
  std::lock_guard<std::mutex> lock(mutex_);
  info.head_seq = head_seq_;
  if (head_seq_ > info.applied_seq) {
    info.lag_events = head_seq_ - info.applied_seq;
    info.lag_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - caught_up_time_)
                      .count();
  }
}

void Follower::export_gauges() {
  net::ReplicaStatusInfo info;  // no digest: this runs after every batch
  info.applied_seq = applied_seq();
  fill_lag(info);
  FORUMCAST_GAUGE_SET("replica.applied_seq",
                      static_cast<double>(info.applied_seq));
  FORUMCAST_GAUGE_SET("replica.lag_events",
                      static_cast<double>(info.lag_events));
  FORUMCAST_GAUGE_SET("replica.lag_ms", info.lag_ms);
}

void Follower::subscribe(net::Client& client, std::uint64_t from_seq,
                         bool want_bundle) {
  net::Message request;
  request.kind = net::MessageKind::kSubscribeRequest;
  request.from_seq = from_seq;
  request.want_bundle = want_bundle;
  client.send_message(request);
}

void Follower::begin_resync(net::Client& client) {
  resyncs_.fetch_add(1, std::memory_order_acq_rel);
  fetch_ = Fetch{};
  fetch_.active = true;
  fetch_.wipe = true;
  subscribe(client, 0, /*want_bundle=*/true);
}

void Follower::complete_fetch() {
  if (fetch_.wipe) {
    // Resync: the local log diverged from the primary's; drop it and
    // rebuild from (bundle, stream from 0). The current serving state
    // keeps answering reads until install().
    std::error_code ec;
    std::filesystem::remove(stream::wal_path(config_.wal_dir), ec);
    std::filesystem::remove(stream::snapshot_path(config_.wal_dir), ec);
  }
  node_.install(fetch_.bundle);
  if (fetch_.swap) {
    swaps_applied_.fetch_add(1, std::memory_order_acq_rel);
    FORUMCAST_COUNTER_ADD("replica.swaps_applied", 1);
    FORUMCAST_LOG_INFO << "follower applied model swap; serving generation "
                       << node_.scorer().pipeline()->generation();
  } else if (fetch_.wipe) {
    FORUMCAST_LOG_INFO << "follower resynced from primary snapshot";
  } else {
    FORUMCAST_LOG_INFO << "follower bootstrapped from primary bundle ("
                       << fetch_.bundle.size() << " bytes)";
  }
  fetch_ = Fetch{};
}

void Follower::handle_batch(net::Client& client, const net::Message& batch) {
  if (fetch_.active && fetch_.wipe) return;  // stale stream during resync
  const std::shared_ptr<NodeState> s = node_.current();
  if (!s) return;  // bundle fetch still in flight

  std::vector<stream::ForumEvent> events;
  events.reserve(batch.event_count);
  std::string_view rest = batch.text;
  while (!rest.empty()) {
    const stream::DecodeResult decoded = stream::decode_event_record(rest);
    FORUMCAST_CHECK_MSG(decoded.bytes_consumed > 0 && !decoded.corrupt,
                        "undecodable record inside a wal batch");
    events.push_back(std::move(decoded.event));
    rest.remove_prefix(decoded.bytes_consumed);
  }
  FORUMCAST_CHECK_MSG(events.size() == batch.event_count,
                      "wal batch count mismatch");

  // A re-subscription (swap fetch, reconnect) can re-send a prefix we
  // already applied; drop anything at or below our durable position.
  const std::uint64_t applied_before = s->live->last_seq();
  std::vector<stream::ForumEvent> fresh;
  fresh.reserve(events.size());
  for (stream::ForumEvent& event : events) {
    if (event.seq > applied_before) fresh.push_back(std::move(event));
  }
  if (!fresh.empty()) {
    s->live->ingest(fresh);
    FORUMCAST_COUNTER_ADD("replica.events_applied", fresh.size());
  }

  const std::uint64_t applied = s->live->last_seq();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (batch.last_seq > head_seq_) head_seq_ = batch.last_seq;
    if (applied >= head_seq_) {
      caught_up_time_ = std::chrono::steady_clock::now();
    }
  }
  export_gauges();

  if (batch.has_digest && applied == batch.last_seq) {
    const std::uint64_t local = s->live->digest();
    if (local != batch.digest) {
      divergences_.fetch_add(1, std::memory_order_acq_rel);
      FORUMCAST_COUNTER_ADD("replica.divergences", 1);
      FORUMCAST_LOG_WARN << "replica state divergence at seq "
                         << batch.last_seq << ": primary digest "
                         << batch.digest << ", local digest " << local
                         << "; resyncing from snapshot";
      begin_resync(client);
    }
  }
}

bool Follower::session(net::Client& client) {
  fetch_ = Fetch{};
  const std::shared_ptr<NodeState> s = node_.current();
  if (s) {
    subscribe(client, s->live->last_seq(), /*want_bundle=*/false);
  } else {
    fetch_.active = true;
    subscribe(client, 0, /*want_bundle=*/true);
  }

  while (!stop_.load(std::memory_order_acquire)) {
    net::Message m;
    const net::Client::PollResult result =
        client.poll_frame(m, config_.heartbeat_ms);
    if (result == net::Client::PollResult::kTimeout) {
      net::Message heartbeat;
      heartbeat.kind = net::MessageKind::kReplicaHeartbeat;
      heartbeat.replica.applied_seq = applied_seq();
      client.send_message(heartbeat);
      export_gauges();
      continue;
    }
    if (result == net::Client::PollResult::kClosed) return true;

    switch (m.kind) {
      case net::MessageKind::kSnapshotOffer: {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (m.head_seq > head_seq_) head_seq_ = m.head_seq;
        }
        if (fetch_.active) {
          FORUMCAST_CHECK_MSG(
              m.bundle_bytes > 0,
              "primary offered no model bundle; cannot bootstrap");
          fetch_.offer_seen = true;
          fetch_.expected_bytes = m.bundle_bytes;
        }
        break;
      }
      case net::MessageKind::kSnapshotChunk: {
        if (!fetch_.active || !fetch_.offer_seen) break;
        FORUMCAST_CHECK_MSG(m.offset == fetch_.bundle.size(),
                            "snapshot chunk out of order");
        fetch_.bundle += m.text;
        FORUMCAST_CHECK_MSG(fetch_.bundle.size() <= fetch_.expected_bytes,
                            "snapshot chunks exceed the offered size");
        if (fetch_.bundle.size() == fetch_.expected_bytes) complete_fetch();
        break;
      }
      case net::MessageKind::kWalBatch:
        handle_batch(client, m);
        break;
      case net::MessageKind::kReplicaStatusResponse: {
        const std::uint64_t applied = applied_seq();
        std::lock_guard<std::mutex> lock(mutex_);
        if (m.replica.head_seq > head_seq_) head_seq_ = m.replica.head_seq;
        if (applied >= head_seq_) {
          caught_up_time_ = std::chrono::steady_clock::now();
        }
        break;
      }
      case net::MessageKind::kModelSwap: {
        // The primary hot-swapped; its bundle file changed. Re-fetch over
        // the wire and rebuild (base + new bundle + local log replay).
        fetch_ = Fetch{};
        fetch_.active = true;
        fetch_.swap = true;
        subscribe(client, applied_seq(), /*want_bundle=*/true);
        break;
      }
      case net::MessageKind::kErrorResponse:
        FORUMCAST_CHECK_MSG(false,
                            "primary rejected replication traffic: " << m.text);
        break;
      default:
        break;  // tolerate unknown pushes from a newer primary
    }
  }
  return false;
}

void Follower::run() {
  double backoff_ms = config_.reconnect_backoff_ms;
  while (!stop_.load(std::memory_order_acquire)) {
    try {
      net::Client client(config_.primary_port, config_.primary_host,
                         config_.client);
      backoff_ms = config_.reconnect_backoff_ms;
      if (!session(client)) return;  // stop() requested
      FORUMCAST_LOG_WARN << "primary connection closed; reconnecting";
    } catch (const std::exception& error) {
      FORUMCAST_LOG_WARN << "replication link error: " << error.what();
      FORUMCAST_COUNTER_ADD("replica.link_errors", 1);
    }
    if (stop_.load(std::memory_order_acquire)) return;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, config_.max_backoff_ms);
  }
}

}  // namespace forumcast::replica
