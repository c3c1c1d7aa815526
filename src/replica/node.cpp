#include "replica/node.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace forumcast::replica {

std::string read_bundle_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FORUMCAST_CHECK_MSG(in.good(), "cannot open model bundle: " << path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

std::shared_ptr<NodeState> build_node_state(
    const forum::Dataset& base, const std::string& bundle_bytes,
    const stream::LiveStateConfig& live_config) {
  auto state = std::make_shared<NodeState>();
  state->dataset = base;
  std::istringstream in(bundle_bytes);
  state->pipeline = core::ForecastPipeline::load(in, state->dataset);
  state->live = std::make_unique<stream::LiveState>(
      state->pipeline, state->dataset, live_config);
  return state;
}

Node::Node(const forum::Dataset& base, stream::LiveStateConfig live_config,
           serve::BatchScorerConfig scorer_config)
    : base_(base),
      live_config_(std::move(live_config)),
      scorer_config_(scorer_config) {}

Node::~Node() {
  if (state_ && scorer_) state_->live->detach(scorer_.get());
}

std::shared_ptr<NodeState> Node::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

void Node::install(const std::string& bundle_bytes) {
  std::shared_ptr<NodeState> next =
      build_node_state(base_, bundle_bytes, live_config_);
  std::shared_ptr<NodeState> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    old = std::exchange(state_, next);
    std::shared_ptr<const core::ForecastPipeline> alias(next,
                                                        &next->pipeline);
    if (!scorer_) {
      scorer_ = std::make_unique<serve::BatchScorer>(std::move(alias),
                                                     scorer_config_);
    } else {
      scorer_->swap_model(std::move(alias));
    }
    next->live->attach(scorer_.get());
  }
  if (old) old->live->detach(scorer_.get());
}

serve::BatchScorer& Node::scorer() {
  FORUMCAST_CHECK_MSG(scorer_ != nullptr,
                      "replica node has no serving state yet");
  return *scorer_;
}

std::function<std::shared_ptr<void>()> Node::read_guard_fn() {
  return [this]() -> std::shared_ptr<void> {
    std::shared_ptr<NodeState> state = current();
    if (!state) return nullptr;
    struct Token {
      std::shared_ptr<NodeState> state;
      std::shared_ptr<void> guard;
    };
    auto token = std::make_shared<Token>();
    token->guard = state->live->read_guard();
    token->state = std::move(state);
    return token;
  };
}

std::uint64_t Node::applied_seq() const {
  const std::shared_ptr<NodeState> state = current();
  return state ? state->live->last_seq() : 0;
}

bool Node::digest_at(std::uint64_t seq, std::uint64_t* digest) const {
  // check → digest → re-check, each with its own reader-lock acquisition
  // (never nested: LiveState's writer-priority lock would deadlock a nested
  // reader). Seqs never go back, a rebuild included (it replays the same
  // log), so equal before and after means the digest describes `seq`.
  const std::shared_ptr<NodeState> state = current();
  if (!state || state->live->last_seq() != seq) return false;
  *digest = state->live->digest();
  return state->live->last_seq() == seq;
}

net::ReplicaStatusInfo Node::status(std::uint8_t role) const {
  net::ReplicaStatusInfo info;
  info.role = role;
  if (!current()) return info;
  for (;;) {  // retry until seq is stable around the digest read
    const std::uint64_t seq = applied_seq();
    if (digest_at(seq, &info.digest)) {
      info.applied_seq = info.head_seq = seq;
      return info;
    }
  }
}

}  // namespace forumcast::replica
