#include "stack.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "forum/io.hpp"
#include "stream/event_json.hpp"
#include "stream/wal.hpp"

namespace perfbench {

namespace fc = forumcast;

namespace {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

}  // namespace

fc::core::PipelineConfig fit_config(std::size_t fit_threads) {
  fc::core::PipelineConfig config;
  config.extractor.lda.iterations = 15;
  config.extractor.centrality.mode = fc::graph::CentralityMode::kSampled;
  config.answer.logistic.epochs = 30;
  config.vote.epochs = 10;
  config.timing.epochs = 5;
  config.survival_samples_per_thread = 5;
  config.timing.learn_omega = false;
  config.timing.f_hidden = {20, 10};
  config.fit_threads = fit_threads;
  return config;
}

std::shared_ptr<PrimaryState> build_primary_state(
    const fc::forum::Dataset& base, const std::string& bundle_bytes,
    const fc::stream::LiveStateConfig& live_config) {
  auto state = std::make_shared<PrimaryState>();
  state->dataset = base;
  std::istringstream in(bundle_bytes);
  state->pipeline = fc::core::ForecastPipeline::load(in, state->dataset);
  state->live = std::make_unique<fc::stream::LiveState>(
      state->pipeline, state->dataset, live_config);
  return state;
}

fc::stream::LiveStateConfig Stack::live_config() const {
  fc::stream::LiveStateConfig live;
  live.wal_dir = config_.work + "/primary_wal";
  live.snapshot_every = config_.snapshot_every;
  return live;
}

Stack::Stack(StackConfig config) : config_(std::move(config)) {
  try {
    std::filesystem::create_directories(config_.work);
    const std::string base_csv = config_.work + "/base.csv";
    const std::string events_jsonl = config_.work + "/events.jsonl";

    std::int64_t t = now_ns();
    const int code = run_process(
        {config_.cli, "generate", "--questions", std::to_string(config_.questions),
         "--users", std::to_string(config_.users), "--seed",
         std::to_string(config_.seed), "--out", base_csv, "--events-out",
         events_jsonl, "--events-after-day", std::to_string(config_.events_after_day)},
        config_.work + "/generate.log", 120.0);
    if (code != 0) throw std::runtime_error("forumcast generate failed");
    // Raw loads (no preprocessing): the event stream references these ids,
    // exactly as the ingest daemon and the follower load them.
    base_ = fc::forum::load_posts_csv(base_csv);
    events_ = fc::stream::load_events_jsonl(events_jsonl);
    times_.generate_s = seconds_since(t);

    t = now_ns();
    {
      fc::core::ForecastPipeline fitted(fit_config(config_.fit_threads));
      std::vector<fc::forum::QuestionId> window(base_.num_questions());
      for (std::size_t i = 0; i < window.size(); ++i) {
        window[i] = static_cast<fc::forum::QuestionId>(i);
      }
      fitted.fit(base_, window);
      times_.fit_s = seconds_since(t);
      t = now_ns();
      std::ostringstream out;
      fitted.save(out);
      bundle_ = std::move(out).str();
      times_.save_ms = seconds_since(t) * 1e3;
    }

    t = now_ns();
    state_ = build_primary_state(base_, bundle_, live_config());
    times_.load_ms = seconds_since(t) * 1e3;

    scorer_ = std::make_unique<fc::serve::BatchScorer>(
        std::shared_ptr<const fc::core::ForecastPipeline>(state_, &state_->pipeline));
    state_->live->attach(scorer_.get());
    fc::replica::PublisherHooks hooks;
    hooks.digest_at = [this](std::uint64_t seq, std::uint64_t* out) {
      if (state_->live->last_seq() != seq) return false;
      *out = state_->live->digest();
      return state_->live->last_seq() == seq;
    };
    publisher_ = std::make_unique<fc::replica::Publisher>(live_config().wal_dir, hooks);

    fc::net::ServerConfig server_config;  // the daemon defaults
    server_config.replication = publisher_.get();
    server_config.status_fn = [this] {
      fc::net::ReplicaStatusInfo info;
      info.role = 1;
      for (;;) {  // retry until seq is stable around the digest read
        const std::uint64_t seq = state_->live->last_seq();
        const std::uint64_t digest = state_->live->digest();
        if (state_->live->last_seq() == seq) {
          info.applied_seq = info.head_seq = seq;
          info.digest = digest;
          return info;
        }
      }
    };
    server_config.batcher.read_guard = [this]() -> std::shared_ptr<void> {
      return state_->live->read_guard();
    };
    server_ = std::make_unique<fc::net::Server>(*scorer_, base_, server_config);
    loop_ = std::thread([this] { server_->run(); });

    t = now_ns();
    const std::string port_file = config_.work + "/follower.port";
    follower_ = spawn({config_.cli, "replica", "--data", base_csv, "--primary-port",
                       std::to_string(server_->replication_port()), "--wal-dir",
                       follower_wal_dir(), "--listen", "0",
                       "--port-file", port_file, "--snapshot-every",
                       std::to_string(config_.snapshot_every)},
                      config_.work + "/follower.log");
    while (!std::filesystem::exists(port_file)) {
      int exit_code = 0;
      if (wait_exit(follower_, 0.0, &exit_code)) {
        follower_ = -1;
        throw std::runtime_error("follower exited during bootstrap");
      }
      if (seconds_since(t) > 90.0) throw std::runtime_error("follower bootstrap timed out");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::ifstream in(port_file);
    int port = 0;
    in >> port;
    follower_port_ = static_cast<std::uint16_t>(port);
    times_.follower_s = seconds_since(t);
  } catch (...) {
    stop_serving();
    throw;
  }
}

Stack::~Stack() {
  stop_serving();
  release_state();
}

void Stack::stop_serving() {
  if (follower_ > 0) {
    stop_process(follower_);
    follower_ = -1;
  }
  if (server_ != nullptr) {
    server_->stop();
    if (loop_.joinable()) loop_.join();
    server_.reset();
  }
}

void Stack::release_state() {
  if (state_ != nullptr && scorer_ != nullptr) state_->live->detach(scorer_.get());
  scorer_.reset();
  publisher_.reset();
  state_.reset();
}

void Stack::warm(fc::forum::QuestionId question,
                 const std::vector<fc::forum::UserId>& users) {
  state_->live->score(*scorer_, question, users);
}

}  // namespace perfbench
