#include "layers.hpp"

#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/recommender.hpp"
#include "ml/tensor.hpp"
#include "net/batcher.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serve/feature_cache.hpp"

namespace perfbench {

namespace fc = forumcast;
using fc::obs::Histogram;
using fc::obs::MetricsRegistry;

namespace {

template <typename T>
const T* find_named(const std::vector<std::pair<std::string, T>>& list,
                    const std::string& name) {
  for (const auto& [key, value] : list) {
    if (key == name) return &value;
  }
  return nullptr;
}

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-6;
}

}  // namespace

constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

RegistryWindow::RegistryWindow(MetricsRegistry::Snapshot begin,
                               MetricsRegistry::Snapshot end)
    : begin_(std::move(begin)), end_(std::move(end)) {}

double RegistryWindow::counter(const std::string& name) const {
  const auto* a = find_named(begin_.counters, name);
  const auto* b = find_named(end_.counters, name);
  if (b == nullptr) return kMissing;
  return static_cast<double>(*b - (a ? *a : 0));
}

double RegistryWindow::gauge(const std::string& name) const {
  const auto* b = find_named(end_.gauges, name);
  return b ? *b : kMissing;
}

Histogram::Snapshot RegistryWindow::hist(const std::string& name) {
  const auto* a = find_named(begin_.histograms, name);
  const auto* b = find_named(end_.histograms, name);
  if (b == nullptr) return {};
  Histogram::Snapshot diff = *b;
  if (a != nullptr) {
    for (std::size_t i = 0; i < diff.counts.size() && i < a->counts.size(); ++i) {
      diff.counts[i] -= a->counts[i];
    }
    diff.total_count -= a->total_count;
    diff.sum -= a->sum;
  }
  if (diff.total_count > 0 && diff.sum == 0.0 &&
      std::find(broken.begin(), broken.end(), name) == broken.end()) {
    broken.push_back(name);
  }
  return diff;
}

double RegistryWindow::hist_mean(const std::string& name) {
  const Histogram::Snapshot h = hist(name);
  if (h.total_count == 0) return kMissing;
  return h.sum / static_cast<double>(h.total_count);
}

double RegistryWindow::hist_quantile(const std::string& name, double q) {
  const Histogram::Snapshot h = hist(name);
  return h.total_count == 0 ? kMissing : h.quantile(q);
}

double RegistryWindow::hist_count(const std::string& name) const {
  const auto* a = find_named(begin_.histograms, name);
  const auto* b = find_named(end_.histograms, name);
  if (b == nullptr || b->total_count == (a ? a->total_count : 0)) return kMissing;
  return static_cast<double>(b->total_count - (a ? a->total_count : 0));
}

const std::vector<std::string>& reported_layers() {
  static const std::vector<std::string> layers = {
      "serve", "stream", "features", "graph", "artifact", "util"};
  return layers;
}

namespace {

/// Spans the benchmark opens itself (around replays, recovery, snapshots).
bool benchmark_span(const std::string& span) {
  return span.find(".replay.") != std::string::npos || span.find(".bench.") != std::string::npos;
}

std::string layer_of(const std::string& span) {
  if (span == "pipeline.save" || span == "pipeline.load") return "artifact";
  const std::string head = span.substr(0, span.find('.'));
  if (head == "pipeline" || head == "answer" || head == "vote" || head == "timing") {
    return "core";
  }
  if (head == "lda") return "topics";
  if (head == "centrality") return "graph";
  return head;
}

}  // namespace

std::map<std::string, double> layer_self_ms(
    const std::vector<fc::obs::TraceEvent>& events) {
  std::map<std::uint32_t, std::vector<const fc::obs::TraceEvent*>> by_thread;
  for (const auto& event : events) by_thread[event.tid].push_back(&event);
  std::map<std::string, double> self;
  for (auto& [tid, list] : by_thread) {
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->start_us != b->start_us ? a->start_us < b->start_us
                                        : a->depth < b->depth;
    });
    // Open spans of this thread, outermost first, with the time their
    // direct children cover so far.
    struct Open {
      const fc::obs::TraceEvent* event;
      double child_us;
    };
    std::vector<Open> open;
    const auto close = [&](const Open& done) {
      if (benchmark_span(done.event->name)) return;
      self[layer_of(done.event->name)] +=
          (static_cast<double>(done.event->dur_us) - done.child_us) * 1e-3;
    };
    for (const auto* event : list) {
      while (!open.empty() &&
             (open.back().event->start_us + open.back().event->dur_us <= event->start_us ||
              open.back().event->depth >= event->depth)) {
        close(open.back());
        open.pop_back();
      }
      if (!open.empty()) open.back().child_us += static_cast<double>(event->dur_us);
      open.push_back({event, 0.0});
    }
    while (!open.empty()) {
      close(open.back());
      open.pop_back();
    }
  }
  return self;
}

ReplayTimings replay_layers(Stack& stack, const std::vector<PlannedRequest>& plan,
                            const std::vector<std::uint32_t>& indices) {
  ReplayTimings timings;
  const std::shared_ptr<void> guard = stack.live().read_guard();
  const fc::core::ForecastPipeline& pipeline = stack.state().pipeline;
  fc::serve::BatchScorer& scorer = stack.scorer();

  // serve: the whole batched score call, through the serving scorer.
  std::vector<std::vector<fc::core::Prediction>> scored(indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const PlannedRequest& request = plan[indices[k]];
    fc::obs::ScopedSpan span("serve.replay.score");
    span.arg("id", indices[k]);
    const std::int64_t t = now_ns();
    scored[k] = scorer.score(request.question, request.users);
    timings.score_ms.push_back(ms_since(t));
  }

  // serve + core: the same requests split into cache fill, row assembly and
  // the three forwards, on a private cache so the serving one is untouched.
  fc::serve::FeatureCache cache(stack.scorer().config().max_cached_questions);
  cache.sync(pipeline.extractor(), pipeline.dataset(), pipeline.generation());
  double rows = 0.0, assemble_us = 0.0, answer_us = 0.0, vote_us = 0.0, timing_us = 0.0;
  std::vector<double> x, out;
  for (const std::uint32_t index : indices) {
    const PlannedRequest& request = plan[index];
    const std::uint64_t misses = cache.stats().question_misses;
    std::int64_t t = now_ns();
    std::shared_ptr<const fc::serve::FeatureCache::QuestionBlock> block;
    {
      fc::obs::ScopedSpan span("serve.replay.question_block");
      span.arg("id", index);
      block = cache.question_block(request.question);
    }
    if (cache.stats().question_misses != misses) {
      timings.question_block_ms.push_back(ms_since(t));
    }
    cache.warm_users(request.users);
    const std::size_t n = request.users.size();
    const std::size_t dim = cache.dimension();
    x.assign(n * dim, 0.0);
    out.assign(n, 0.0);
    t = now_ns();
    {
      fc::obs::ScopedSpan span("serve.replay.assemble");
      span.arg("id", index);
      for (std::size_t r = 0; r < n; ++r) {
        cache.assemble(request.users[r], *block,
                       std::span<double>(x.data() + r * dim, dim));
      }
    }
    assemble_us += static_cast<double>(now_ns() - t) * 1e-3;
    const fc::ml::Tensor<const double> rows_view(x.data(), n, dim);
    t = now_ns();
    {
      fc::obs::ScopedSpan span("core.replay.fwd_answer");
      span.arg("id", index);
      pipeline.answer_predictor().predict_probability_batch(rows_view, out);
    }
    answer_us += static_cast<double>(now_ns() - t) * 1e-3;
    t = now_ns();
    {
      fc::obs::ScopedSpan span("core.replay.fwd_vote");
      span.arg("id", index);
      pipeline.vote_predictor().predict_batch(rows_view, out);
    }
    vote_us += static_cast<double>(now_ns() - t) * 1e-3;
    const double open = pipeline.question_open_duration(request.question);
    t = now_ns();
    {
      fc::obs::ScopedSpan span("core.replay.fwd_timing");
      span.arg("id", index);
      pipeline.timing_predictor().predict_delay_batch(rows_view, open, out);
    }
    timing_us += static_cast<double>(now_ns() - t) * 1e-3;
    rows += static_cast<double>(n);
  }
  if (rows > 0) {
    timings.assemble_us_per_row = assemble_us / rows;
    timings.fwd_answer_us_per_row = answer_us / rows;
    timings.fwd_vote_us_per_row = vote_us / rows;
    timings.fwd_timing_us_per_row = timing_us / rows;
  }

  // opt: eq. (2) routing on the rows scored above (the predict callback
  // hands back the recorded predictions, so only eligibility + LP count).
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const PlannedRequest& request = plan[indices[k]];
    const auto recorded = [&scored, k](fc::forum::QuestionId,
                                       std::span<const fc::forum::UserId>) {
      return scored[k];
    };
    const fc::core::Recommender recommender(pipeline, recorded);
    fc::obs::ScopedSpan span("opt.replay.recommend");
    span.arg("id", indices[k]);
    const std::int64_t t = now_ns();
    const auto result = recommender.recommend(request.question, request.users);
    timings.recommend_ms.push_back(ms_since(t));
    if (result.ranking.size() > request.users.size()) {
      throw std::runtime_error("routing ranked more users than it was given");
    }
  }

  // net: the request frame and its response frame through the codec.
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const PlannedRequest& request = plan[indices[k]];
    fc::obs::ScopedSpan span("net.replay.codec");
    span.arg("id", indices[k]);
    const std::int64_t t = now_ns();
    fc::net::Message message;
    message.kind = fc::net::MessageKind::kScoreRequest;
    message.request_id = indices[k] + 1;
    message.question = request.question;
    message.users = request.users;
    std::string frame;
    fc::net::append_frame(frame, message);
    const auto decoded_request = fc::net::decode_frame(frame);
    fc::net::Message response;
    response.kind = fc::net::MessageKind::kScoreResponse;
    response.request_id = decoded_request.message.request_id;
    response.predictions = scored[k];
    frame.clear();
    fc::net::append_frame(frame, response);
    const auto decoded_response = fc::net::decode_frame(frame);
    timings.codec_us.push_back(static_cast<double>(now_ns() - t) * 1e-3);
    if (decoded_request.corrupt || decoded_response.corrupt ||
        decoded_response.message.predictions.size() != request.users.size()) {
      throw std::runtime_error("frame codec round trip failed");
    }
  }
  return timings;
}

namespace {
/// When the calling batcher worker last started a group (see replay_batcher).
thread_local std::int64_t group_start_ns = 0;
}  // namespace

BatcherReplay replay_batcher(Stack& stack, const std::vector<PlannedRequest>& plan,
                             const std::vector<std::uint32_t>& indices,
                             std::size_t in_flight) {
  const std::size_t n = indices.size();
  std::vector<std::int64_t> submitted(n, 0), started(n, 0), done(n, 0);
  std::vector<char> answered(n, 0);
  std::mutex mutex;
  std::condition_variable finished;
  std::size_t completed = 0;
  std::size_t next = std::min(in_flight, n);  // closed loop: next to submit

  fc::net::BatcherConfig config = fc::net::ServerConfig{}.batcher;  // the daemon's
  config.read_guard = [&stack]() -> std::shared_ptr<void> {
    group_start_ns = now_ns();
    return stack.live().read_guard();
  };
  std::unique_ptr<fc::net::MicroBatcher> batcher;
  const auto finish = [&] {
    std::lock_guard<std::mutex> lock(mutex);
    ++completed;
    finished.notify_one();
  };
  const auto submit = [&](std::size_t k) {
    const PlannedRequest& request = plan[indices[k]];
    fc::net::MicroBatcher::Item item;
    item.conn_id = k;
    item.request.kind = request.kind == RequestKind::kScore ? fc::net::MessageKind::kScoreRequest
                                                            : fc::net::MessageKind::kRouteRequest;
    item.request.request_id = k + 1;
    item.request.question = request.question;
    item.request.users = request.users;
    submitted[k] = now_ns();
    if (!batcher->try_submit(std::move(item))) finish();
  };
  const auto on_complete = [&](std::uint64_t conn, std::string frame) {
    const std::int64_t t = now_ns();
    const std::size_t k = conn;
    started[k] = group_start_ns;
    done[k] = t;
    const auto kind = fc::net::decode_frame(frame).message.kind;
    answered[k] = kind == fc::net::MessageKind::kScoreResponse ||
                  kind == fc::net::MessageKind::kRouteResponse;
    if (in_flight > 0) {
      std::size_t j = n;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (next < n) j = next++;
      }
      if (j < n) submit(j);
    }
    finish();
  };
  batcher = std::make_unique<fc::net::MicroBatcher>(stack.scorer(), stack.base(), config,
                                                     on_complete);
  if (in_flight > 0) {
    for (std::size_t k = 0; k < std::min(in_flight, n); ++k) submit(k);
  } else if (n > 0) {
    const std::int64_t start = now_ns();
    const std::int64_t first_due_us = plan[indices[0]].due_us;
    for (std::size_t k = 0; k < n; ++k) {
      const std::int64_t due = start + (plan[indices[k]].due_us - first_due_us) * 1000;
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns()));
      submit(k);
    }
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    if (!finished.wait_for(lock, std::chrono::seconds(30), [&] { return completed == n; })) {
      throw std::runtime_error("the batcher replay did not finish");
    }
  }
  batcher->stop();

  BatcherReplay replay;
  for (std::size_t k = 0; k < n; ++k) {
    if (!answered[k]) {
      ++replay.failed;
      continue;
    }
    replay.queue_ms.push_back(static_cast<double>(started[k] - submitted[k]) * 1e-6);
    replay.service_ms.push_back(static_cast<double>(done[k] - started[k]) * 1e-6);
  }
  return replay;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<RequestResult>& client_spans) {
  fc::obs::TraceCollector& collector = fc::obs::TraceCollector::global();
  // The collector's clock is steady_clock microseconds since its epoch.
  const std::int64_t epoch_ns =
      now_ns() - static_cast<std::int64_t>(collector.now_us()) * 1000;
  std::string json = collector.chrome_trace_json();
  const std::size_t close = json.rfind(']');
  if (close == std::string::npos) throw std::runtime_error("unexpected trace JSON");
  std::string extra;
  bool first = json[close - 1] == '[';  // the collector recorded nothing
  for (const RequestResult& span : client_spans) {
    if (span.recv_ns == 0) continue;
    const std::int64_t start = span.due_ns != 0 ? span.due_ns : span.send_ns;
    if (start < epoch_ns) continue;
    extra += first ? "" : ",";
    first = false;
    extra += "{\"name\":\"";
    extra += span.kind == RequestKind::kScore ? "net.client.score" : "net.client.route";
    extra += "\",\"cat\":\"loadgen\",\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":" +
             std::to_string((start - epoch_ns) / 1000) +
             ",\"dur\":" + std::to_string((span.recv_ns - start) / 1000) +
             ",\"args\":{\"id\":" + std::to_string(span.plan_index) +
             ",\"status\":" + std::to_string(static_cast<int>(span.status)) + "}}";
  }
  json.insert(close, extra);
  std::ofstream out(path);
  out << json;
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
