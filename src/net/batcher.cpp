#include "net/batcher.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <map>
#include <tuple>
#include <utility>

#include "core/recommender.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace forumcast::net {

namespace {

std::string encode_error(std::uint64_t request_id, ErrorCode code,
                         std::string detail) {
  Message response;
  response.kind = MessageKind::kErrorResponse;
  response.request_id = request_id;
  response.error = code;
  response.text = std::move(detail);
  std::string frame;
  append_frame(frame, response);
  return frame;
}

#if FORUMCAST_OBS_ENABLED
/// The per-request latency histogram, shared with the observe macro below
/// (same name → same registration; bounds are consulted on first use only).
obs::Histogram& request_latency_histogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::global().histogram(
          "net.request_ms", {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
                             50.0, 100.0, 250.0});
  return histogram;
}
#endif

}  // namespace

MicroBatcher::MicroBatcher(serve::BatchScorer& scorer,
                           const forum::Dataset& dataset, BatcherConfig config,
                           CompletionFn on_complete)
    : scorer_(scorer),
      dataset_(dataset),
      config_(config),
      on_complete_(std::move(on_complete)) {
  FORUMCAST_CHECK(config_.max_batch_requests >= 1);
  FORUMCAST_CHECK(config_.max_queue >= 1);
  const std::size_t threads = std::max<std::size_t>(1, config_.threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    Worker& worker = *workers_.back();
    worker.thread = std::thread([this, &worker] { worker_loop(worker); });
  }
}

MicroBatcher::~MicroBatcher() { stop(); }

bool MicroBatcher::try_submit(Item item) {
  item.enqueued = std::chrono::steady_clock::now();
  Worker* idle = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || queue_.size() >= config_.max_queue) return false;
    queue_.push_back(std::move(item));
    if (!idle_.empty()) {
      idle = idle_.back();
      idle_.pop_back();
    }
  }
  if (idle != nullptr) idle->wake.notify_one();
  return true;
}

std::size_t MicroBatcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void MicroBatcher::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    idle_.clear();
  }
  for (const auto& worker : workers_) worker->wake.notify_one();
  for (const auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void MicroBatcher::worker_loop(Worker& self) {
  for (;;) {
    std::vector<Item> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stopping_ && queue_.empty()) {
        idle_.push_back(&self);
        self.wake.wait(lock);
        // A submission unparks the worker it wakes; a spurious wake-up
        // leaves it parked, so unpark it here.
        const auto parked = std::find(idle_.begin(), idle_.end(), &self);
        if (parked != idle_.end()) idle_.erase(parked);
      }
      if (queue_.empty()) return;  // stopping and fully drained
      // Work-conserving: take whatever is queued now. Requests that arrive
      // while this batch scores form the next one.
      const std::size_t take =
          std::min(queue_.size(), config_.max_batch_requests);
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.begin() +
                                           static_cast<std::ptrdiff_t>(take)));
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(take));
    }
    process(std::move(batch));
  }
}

void MicroBatcher::process(std::vector<Item> batch) {
  FORUMCAST_HISTOGRAM_OBSERVE("net.batch_fill", batch.size(), 1, 2, 4, 8, 16,
                              32, 64, 128, 256);
  // Group score requests by question — everything pending for one question
  // shares its cached question block and one BatchScorer pass. Other kinds
  // are handled per item.
  std::map<forum::QuestionId, std::vector<Item*>> score_groups;
  for (Item& item : batch) {
    if (item.request.kind == MessageKind::kScoreRequest) {
      score_groups[item.request.question].push_back(&item);
    }
  }
  for (auto& [question, group] : score_groups) {
    score_group(question, group);
  }
  for (Item& item : batch) {
    switch (item.request.kind) {
      case MessageKind::kScoreRequest:
        break;  // answered by score_group above
      case MessageKind::kRouteRequest:
        complete(item, handle_route(item));
        break;
      case MessageKind::kSwapRequest:
        complete(item, handle_swap(item));
        break;
      default:
        complete(item, encode_error(item.request.request_id,
                                    ErrorCode::kUnknownKind,
                                    "kind not handled by the batcher"));
        break;
    }
  }
#if FORUMCAST_OBS_ENABLED
  // SLO view: admission-to-completion latency quantiles, refreshed per
  // batch so dashboards and health probes read a current value.
  const obs::Histogram::Snapshot latency = request_latency_histogram().snapshot();
  FORUMCAST_GAUGE_SET("net.request_p50_ms", latency.quantile(0.5));
  FORUMCAST_GAUGE_SET("net.request_p99_ms", latency.quantile(0.99));
#endif
}

void MicroBatcher::complete(const Item& item, std::string frame) {
  // Latency first: a client that has its response can already find it in a
  // metrics snapshot.
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - item.enqueued)
                               .count();
  FORUMCAST_HISTOGRAM_OBSERVE("net.request_ms", waited_ms, 0.05, 0.1, 0.25,
                              0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
                              250.0);
  on_complete_(item.conn_id, std::move(frame));
}

void MicroBatcher::score_group(forum::QuestionId question,
                               std::vector<Item*>& group) {
  // Hold the read guard (when configured) across validation and scoring so
  // a live-ingest node cannot grow the dataset mid-batch, and validate
  // against the *served* pipeline's dataset — after a rebuild-style swap it
  // is a different (larger) dataset than the one at construction.
  const std::shared_ptr<void> guard =
      config_.read_guard ? config_.read_guard() : nullptr;
  const std::shared_ptr<const core::ForecastPipeline> pipeline =
      scorer_.pipeline();
  const forum::Dataset& dataset = pipeline->dataset();
  // Validate per request; invalid ones answer kBadRequest and drop out of
  // the coalesced batch.
  std::vector<Item*> valid;
  valid.reserve(group.size());
  for (Item* item : group) {
    const Message& request = item->request;
    std::string problem;
    if (request.question >= dataset.num_questions()) {
      problem = "question out of range";
    } else if (request.users.empty()) {
      problem = "empty candidate set";
    } else {
      for (const forum::UserId u : request.users) {
        if (u >= dataset.num_users()) {
          problem = "user out of range";
          break;
        }
      }
    }
    if (!problem.empty()) {
      FORUMCAST_COUNTER_ADD("net.bad_requests", 1);
      complete(*item, encode_error(request.request_id,
                                   ErrorCode::kBadRequest, std::move(problem)));
    } else {
      valid.push_back(item);
    }
  }
  if (valid.empty()) return;

  std::size_t total = 0;
  for (const Item* item : valid) total += item->request.users.size();
  std::vector<forum::UserId> users;
  users.reserve(total);
  for (const Item* item : valid) {
    users.insert(users.end(), item->request.users.begin(),
                 item->request.users.end());
  }

  try {
    const std::vector<core::Prediction> predictions =
        scorer_.score(question, users);
    FORUMCAST_COUNTER_ADD("net.score_batches", 1);
    FORUMCAST_COUNTER_ADD("net.requests_scored", valid.size());
    FORUMCAST_COUNTER_ADD("net.pairs_scored", predictions.size());
    std::size_t offset = 0;
    for (const Item* item : valid) {
      Message response;
      response.kind = MessageKind::kScoreResponse;
      response.request_id = item->request.request_id;
      response.predictions.assign(
          predictions.begin() + static_cast<std::ptrdiff_t>(offset),
          predictions.begin() +
              static_cast<std::ptrdiff_t>(offset + item->request.users.size()));
      offset += item->request.users.size();
      std::string frame;
      append_frame(frame, response);
      complete(*item, std::move(frame));
    }
  } catch (const std::exception& error) {
    for (const Item* item : valid) {
      complete(*item, encode_error(item->request.request_id,
                                   ErrorCode::kInternal, error.what()));
    }
  }
}

std::string MicroBatcher::handle_route(const Item& item) {
  const Message& request = item.request;
  const std::shared_ptr<void> guard =
      config_.read_guard ? config_.read_guard() : nullptr;
  // Snapshot the served model: a concurrent hot swap must not invalidate
  // the pipeline the recommender references mid-solve. Validation uses the
  // snapshot's own dataset (it tracks rebuild-style swaps).
  const std::shared_ptr<const core::ForecastPipeline> pipeline =
      scorer_.pipeline();
  const forum::Dataset& dataset = pipeline->dataset();
  if (request.question >= dataset.num_questions() || request.users.empty()) {
    FORUMCAST_COUNTER_ADD("net.bad_requests", 1);
    return encode_error(request.request_id, ErrorCode::kBadRequest,
                        "question out of range or empty candidate set");
  }
  for (const forum::UserId u : request.users) {
    if (u >= dataset.num_users()) {
      FORUMCAST_COUNTER_ADD("net.bad_requests", 1);
      return encode_error(request.request_id, ErrorCode::kBadRequest,
                          "user out of range");
    }
  }
  try {
    const core::Recommender recommender(*pipeline, scorer_.predict_fn());
    const core::RecommendationResult result =
        recommender.recommend(request.question, request.users);
    Message response;
    response.kind = MessageKind::kRouteResponse;
    response.request_id = request.request_id;
    response.feasible = result.feasible;
    const std::size_t keep =
        request.top_k == 0
            ? result.ranking.size()
            : std::min<std::size_t>(request.top_k, result.ranking.size());
    response.routes.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) {
      const core::Recommendation& pick = result.ranking[i];
      response.routes.push_back({pick.user, pick.probability, pick.prediction});
    }
    FORUMCAST_COUNTER_ADD("net.requests_routed", 1);
    std::string frame;
    append_frame(frame, response);
    return frame;
  } catch (const std::exception& error) {
    return encode_error(request.request_id, ErrorCode::kInternal, error.what());
  }
}

std::string MicroBatcher::handle_swap(const Item& item) {
  const Message& request = item.request;
  try {
    std::uint64_t generation = 0;
    std::uint64_t swap_epoch = 0;
    if (config_.swap_fn) {
      // Live-ingest daemons swap by rebuilding serving state (base dataset
      // + bundle + event log); the hook returns the post-swap identity.
      std::tie(generation, swap_epoch) = config_.swap_fn(request.text);
    } else {
      std::ifstream in(request.text, std::ios::binary);
      FORUMCAST_CHECK_MSG(in.good(),
                          "cannot open model bundle: " << request.text);
      auto next = std::make_shared<core::ForecastPipeline>(
          core::ForecastPipeline::load(in, dataset_));
      scorer_.swap_model(std::move(next));
      generation = scorer_.pipeline()->generation();
      swap_epoch = scorer_.swap_epoch();
    }
    FORUMCAST_COUNTER_ADD("net.model_swaps", 1);
    if (config_.on_swap) config_.on_swap(request.text, generation, swap_epoch);
    Message response;
    response.kind = MessageKind::kSwapResponse;
    response.request_id = request.request_id;
    response.generation = generation;
    response.swap_epoch = swap_epoch;
    std::string frame;
    append_frame(frame, response);
    return frame;
  } catch (const std::exception& error) {
    return encode_error(request.request_id, ErrorCode::kInternal, error.what());
  }
}

}  // namespace forumcast::net
