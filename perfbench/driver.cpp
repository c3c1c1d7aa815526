// perfbench: the serving-path benchmark of forumcast.
//
//   perfbench --workload score_light|score_bulk --seed N
//             --seconds S --trace 0|1 --work DIR --cli FORUMCAST
//             [--trace-out FILE] [--small 1] [--perturb-probe 1]
//
// Brings up the replicated primary (stack.hpp) and one follower process,
// drives it from a separate load-generator process (loadgen.cpp) with the
// workload's request mix, then replays the event stream into LiveState on its
// own schedule, checks every answer, and prints the metrics by name and unit.
// The last stdout line is the result object:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same workload
// with the span collector switched on for its second half and reports the
// per-layer metrics instead (perfbench/layers.json maps each to the
// end-to-end metric it should move).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/recommender.hpp"
#include "layers.hpp"
#include "net/client.hpp"
#include "stack.hpp"
#include "stream/wal.hpp"

namespace perfbench {
namespace {

namespace fc = forumcast;
using fc::stream::ForumEvent;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work;
  std::string cli;
  std::string self;
  std::string trace_out;
  std::string git_describe = "unknown";
  bool small = false;          ///< tiny forum, one set-up: the self-test
  bool perturb_probe = false;  ///< corrupt one probe expectation
};

struct Workload {
  const char* name;
  bool closed_loop;
  double read_rate;    ///< open loop: requests per second (Poisson)
  std::size_t window;  ///< closed loop: requests in flight per connection
  std::size_t min_users;
  std::size_t max_users;
};

const Workload kWorkloads[] = {
    {"score_light", false, 400.0, 0, 4, 16},
    {"score_bulk", true, 0.0, 4, 64, 512},
};

constexpr std::size_t kSetups = 5;           ///< set-ups per run; setup_s is their median
constexpr double kTailSeconds = 12.0;        ///< paced event replay after the load
/// Paced replay rate, events per second: far below ingest capacity. At 20
/// events/s the primary's and the follower's centrality refreshes overlap
/// the next event and runs flip between a fast and a 3x slower mode.
constexpr double kEventRate = 10.0;
constexpr double kMaxLatenessP99Ms = 20.0;   ///< open-loop generator falling behind
constexpr double kOverheadSliceS = 0.25;     ///< tracer on/off slices of a traced run
constexpr std::int64_t kPingIntervalNs = 10'000'000;
constexpr std::int64_t kStartDelayNs = 300'000'000;
/// The generated forum, the hot questions of score_light and the Zipf rank
/// order of score_bulk: the same for every seed (see make_inputs).
constexpr std::uint64_t kForumSeed = 2026;

// ---------------------------------------------------------------------------
// Deterministic inputs.

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}
  std::uint64_t below(std::uint64_t n) { return gen_() % n; }
  double unit() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }

 private:
  std::mt19937_64 gen_;
};

std::vector<UserId> draw_users(Rng& rng, std::size_t population, std::size_t k) {
  k = std::min(k, population);
  std::vector<UserId> users;
  users.reserve(k);
  std::vector<bool> taken(population, false);
  while (users.size() < k) {
    const auto u = static_cast<UserId>(rng.below(population));
    if (!taken[u]) {
      taken[u] = true;
      users.push_back(u);
    }
  }
  return users;
}

std::size_t draw_size(Rng& rng, const Workload& w) {
  if (w.max_users <= 16) return w.min_users + rng.below(w.max_users - w.min_users + 1);
  const double lo = std::log(static_cast<double>(w.min_users));
  const double hi = std::log(static_cast<double>(w.max_users) + 1.0);
  const auto k = static_cast<std::size_t>(std::exp(lo + rng.unit() * (hi - lo)));
  return std::clamp(k, w.min_users, w.max_users);
}

RequestKind draw_kind(Rng& rng) {
  return rng.below(8) == 0 ? RequestKind::kRoute : RequestKind::kScore;
}

constexpr double kEventIntervalUs = 1e6 / kEventRate;

/// Stream events ingested during set-up, so the paced replay runs in the
/// steady state rather than in the burst of full centrality rebuilds that
/// new graph nodes cause right after the split.
std::size_t stream_prefix(std::size_t events) {
  return std::min<std::size_t>(400, events / 2);
}

/// How many stream events a paced replay of `seconds` covers.
std::size_t events_in(double seconds, std::size_t available) {
  return std::min(available, static_cast<std::size_t>(seconds * kEventRate));
}

/// The workload's request plan plus the questions set-up warms.
struct Inputs {
  std::vector<PlannedRequest> plan;
  std::vector<QuestionId> warm_questions;
};

Inputs make_inputs(const Workload& w, const Options& opt, const Stack& stack) {
  // Which questions are hot (light) and how they rank (bulk) is fixed like
  // the forum: per-seed choices moved score_bulk's throughput by 0.2 of the
  // median between seeds. The run seed draws arrivals, the question of each
  // request from that fixed distribution, and the candidate sets.
  Rng fixed(kForumSeed);
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(&w - kWorkloads));
  const std::size_t questions = stack.base().num_questions();
  const std::size_t users = stack.base().num_users();
  Inputs inputs;

  if (!w.closed_loop) {
    // score_light: <= 8 hot questions, warmed at set-up, so every cache
    // lookup hits; Poisson arrivals.
    std::vector<QuestionId> hot;
    while (hot.size() < std::min<std::size_t>(8, questions)) {
      const auto q = static_cast<QuestionId>(fixed.below(questions));
      if (std::find(hot.begin(), hot.end(), q) == hot.end()) hot.push_back(q);
    }
    inputs.warm_questions = hot;
    double t_us = 0.0;
    const double horizon_us = opt.seconds * 1e6;
    for (;;) {
      t_us += -std::log(1.0 - rng.unit()) / w.read_rate * 1e6;
      if (t_us >= horizon_us) break;
      PlannedRequest request;
      request.due_us = static_cast<std::int64_t>(t_us);
      request.kind = draw_kind(rng);
      request.question = hot[rng.below(hot.size())];
      request.users = draw_users(rng, users, draw_size(rng, w));
      inputs.plan.push_back(std::move(request));
    }
    return inputs;
  }
  // score_bulk: Zipf(1) over every question in a fixed rank order; the
  // corpus is far larger than the 64 question blocks the cache keeps.
  std::vector<QuestionId> order(questions);
  for (std::size_t i = 0; i < questions; ++i) order[i] = static_cast<QuestionId>(i);
  for (std::size_t i = questions; i > 1; --i) std::swap(order[i - 1], order[fixed.below(i)]);
  std::vector<double> cdf(questions);
  double total = 0.0;
  for (std::size_t r = 0; r < questions; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  inputs.warm_questions.assign(order.begin(),
                               order.begin() + std::min<std::ptrdiff_t>(63, questions));
  const std::size_t count = opt.small ? 2048 : 16384;
  for (std::size_t i = 0; i < count; ++i) {
    PlannedRequest request;
    request.kind = i % 8 == 7 ? RequestKind::kRoute : RequestKind::kScore;
    const double u = rng.unit() * total;
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    request.question = order[std::min(rank, questions - 1)];
    request.users = draw_users(rng, users, draw_size(rng, w));
    inputs.plan.push_back(std::move(request));
  }
  return inputs;
}

constexpr std::size_t kChunk = 64;  ///< events per ingest call outside the paced replay

/// Ingests `events` back to back in kChunk-event calls.
void ingest_chunks(Stack& stack, std::span<const ForumEvent> events) {
  for (std::size_t begin = 0; begin < events.size(); begin += kChunk) {
    stack.live().ingest(events.subspan(begin, std::min(kChunk, events.size() - begin)));
    stack.server().notify_replication();
  }
}

/// A client whose connect and reads time out, so a stuck server fails the
/// run instead of hanging it.
fc::net::Client bounded_client(std::uint16_t port) {
  fc::net::ClientConfig config;
  config.connect_timeout_ms = 5000.0;
  config.read_timeout_ms = 10000.0;
  return fc::net::Client(port, "127.0.0.1", config);
}

/// Waits (bounded) until the follower holds the primary's last seq.
fc::net::ReplicaStatusInfo wait_follower(Stack& stack) {
  const std::uint64_t head = stack.live().last_seq();
  fc::net::Client client = bounded_client(stack.follower_port());
  fc::net::ReplicaStatusInfo status;
  const std::int64_t deadline = now_ns() + 30'000'000'000LL;
  do {
    status = client.replica_status();
    if (status.applied_seq >= head) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (now_ns() < deadline);
  return status;
}

/// Set-up's last phase: the stream prefix, then the caches.
void warm(Stack& stack, const Inputs& inputs) {
  const auto events = std::span<const fc::stream::ForumEvent>(stack.events());
  ingest_chunks(stack, events.first(stream_prefix(events.size())));
  if (wait_follower(stack).applied_seq != stack.live().last_seq()) {
    throw std::runtime_error("the follower did not catch up with the stream prefix");
  }
  std::vector<UserId> all(stack.base().num_users());
  for (std::size_t u = 0; u < all.size(); ++u) all[u] = static_cast<UserId>(u);
  for (const QuestionId q : inputs.warm_questions) stack.warm(q, all);
}

// ---------------------------------------------------------------------------
// Correctness gate.

struct Gate {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) { count(1, ok ? 0 : 1, what); }
  void count(std::size_t tried, std::size_t bad, const std::string& what) {
    attempted += tried;
    failed += bad;
    if (bad > 0 && failures.size() < 20) failures.push_back(what);
  }
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_prediction(const fc::core::Prediction& a, const fc::core::Prediction& b) {
  return same_bits(a.answer_probability, b.answer_probability) &&
         same_bits(a.votes, b.votes) && same_bits(a.delay_hours, b.delay_hours);
}

fc::net::Message route_message(const fc::core::RecommendationResult& result) {
  fc::net::Message message;
  message.kind = fc::net::MessageKind::kRouteResponse;
  message.feasible = result.feasible;
  for (const auto& pick : result.ranking) {
    message.routes.push_back({pick.user, pick.probability, pick.prediction});
  }
  return message;
}

/// The fixed probe set over the wire: scores must equal the scalar reference
/// ForecastPipeline::predict bit for bit, routes the in-process Recommender.
void probe(Stack& stack, bool perturb, Gate& gate, const std::string& when) {
  fc::net::Client client = bounded_client(stack.port());
  std::vector<UserId> users(std::min<std::size_t>(48, stack.base().num_users()));
  for (std::size_t u = 0; u < users.size(); ++u) users[u] = static_cast<UserId>(u);
  std::vector<UserId> route_users(std::min<std::size_t>(128, stack.base().num_users()));
  for (std::size_t u = 0; u < route_users.size(); ++u) route_users[u] = static_cast<UserId>(u);

  const std::size_t questions = [&] {
    const auto guard = stack.live().read_guard();
    return stack.state().dataset.num_questions();
  }();
  bool first = true;
  for (const std::size_t qi : {std::size_t{0}, questions / 2, questions - 1}) {
    const auto q = static_cast<QuestionId>(qi);
    std::vector<fc::core::Prediction> wire;
    try {
      wire = client.score(q, users);
    } catch (const std::exception& error) {
      gate.check(false, when + " probe score q" + std::to_string(q) + ": " + error.what());
      continue;
    }
    bool ok = wire.size() == users.size();
    for (std::size_t i = 0; ok && i < users.size(); ++i) {
      fc::core::Prediction expected = stack.live().predict(users[i], q);
      if (perturb && first) {
        expected.answer_probability = std::nextafter(expected.answer_probability, 2.0);
        first = false;
      }
      ok = same_prediction(expected, wire[i]);
    }
    gate.check(ok, when + " probe score q" + std::to_string(q) + " differs from predict()");
  }
  for (const std::size_t qi : {questions / 2, questions - 1}) {
    const auto q = static_cast<QuestionId>(qi);
    std::uint64_t expected = 0;
    {
      const auto guard = stack.live().read_guard();
      const fc::core::Recommender recommender(stack.state().pipeline,
                                              stack.scorer().predict_fn());
      expected = response_digest(route_message(recommender.recommend(q, route_users)));
    }
    try {
      const fc::net::Message wire = client.route(q, 0, route_users);
      gate.check(response_digest(wire) == expected,
                 when + " probe route q" + std::to_string(q) + " differs from recommend()");
    } catch (const std::exception& error) {
      gate.check(false, when + " probe route q" + std::to_string(q) + ": " + error.what());
    }
  }
}

/// Bit-compares every `stride`-th successful answer of a static-model load
/// with a cold in-process scorer over the same model.
void verify_answers(Stack& stack, const std::vector<PlannedRequest>& plan,
                    const std::vector<RequestResult>& results, std::size_t stride,
                    Gate& gate) {
  const auto pipeline = stack.scorer().pipeline();
  const fc::serve::BatchScorer reference(pipeline);
  const fc::core::Recommender recommender(*pipeline, reference.predict_fn());
  const auto guard = stack.live().read_guard();
  for (std::size_t i = 0; i < results.size(); i += stride) {
    const RequestResult& result = results[i];
    if (result.status != Status::kOk) continue;
    const PlannedRequest& request = plan[result.plan_index];
    fc::net::Message expected;
    if (request.kind == RequestKind::kScore) {
      expected.kind = fc::net::MessageKind::kScoreResponse;
      expected.predictions = reference.score(request.question, request.users);
    } else {
      expected = route_message(recommender.recommend(request.question, request.users));
    }
    gate.check(response_digest(expected) == result.digest,
               "answer to request " + std::to_string(i) + " differs from in-process");
  }
}

// ---------------------------------------------------------------------------
// Event replay and follower visibility.

struct IngestLog {
  std::vector<std::int64_t> due_ns;  ///< per event
  std::vector<std::int64_t> ack_ns;  ///< per event; 0 = never applied
  std::vector<double> call_ms;
  std::uint64_t first_seq = 0;  ///< seq of the first replayed event
  std::size_t failed = 0;
  std::string error;
};

/// Open-loop replay: event i is due at start + i·interval; each ingest()
/// call takes every event already due (a natural group commit).
void feed(Stack& stack, std::span<const ForumEvent> events, std::int64_t start_ns,
          double interval_us, IngestLog& log) {
  const std::size_t n = events.size();
  log.first_seq = stack.live().last_seq() + 1;
  log.due_ns.resize(n);
  log.ack_ns.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    log.due_ns[i] = start_ns + static_cast<std::int64_t>(static_cast<double>(i) * interval_us * 1e3);
  }
  std::size_t next = 0;
  while (next < n) {
    const std::int64_t now = now_ns();
    std::size_t end = next;
    while (end < n && log.due_ns[end] <= now) ++end;
    if (end == next) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(log.due_ns[next] - now));
      continue;
    }
    try {
      stack.live().ingest(events.subspan(next, end - next));
    } catch (const std::exception& error) {
      log.failed += n - next;
      log.error = error.what();
      return;
    }
    const std::int64_t ack = now_ns();
    for (std::size_t i = next; i < end; ++i) log.ack_ns[i] = ack;
    log.call_ms.push_back(static_cast<double>(ack - now) * 1e-6);
    stack.server().notify_replication();
    next = end;
  }
}

struct FollowerLog {
  /// (time, size of the follower's WAL): the follower appends and fsyncs
  /// each applied batch before releasing its writer lock, so the WAL size
  /// says which events it has applied without asking it anything (a status
  /// request would make it compute its state digest).
  std::vector<std::pair<std::int64_t, std::int64_t>> wal_bytes;
  std::string error;
};

double json_number_after(const std::string& json, const std::string& key) {
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

std::int64_t file_size(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<std::int64_t>(size);
}

void watch_follower(const Stack& stack, const std::atomic<bool>& stop, FollowerLog& log) {
  try {
    const std::string wal = fc::stream::wal_path(stack.follower_wal_dir());
    std::int64_t last = -1;
    while (!stop.load(std::memory_order_acquire)) {
      const std::int64_t size = file_size(wal);
      if (size != last) {
        log.wal_bytes.emplace_back(now_ns(), size);
        last = size;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  } catch (const std::exception& error) {
    log.error = error.what();
  }
}

/// Event due → the follower's WAL holds it, in ms, per applied event.
std::vector<double> visibility_ms(const IngestLog& ingest, const FollowerLog& follower,
                                  std::span<const ForumEvent> events, std::int64_t wal_start) {
  std::vector<double> out;
  std::int64_t end = wal_start;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < ingest.due_ns.size(); ++i) {
    ForumEvent logged = events[i];
    logged.seq = ingest.first_seq + i;
    std::string record;
    fc::stream::append_event_record(record, logged);
    end += static_cast<std::int64_t>(record.size());
    if (ingest.ack_ns[i] == 0) continue;
    while (cursor < follower.wal_bytes.size() && follower.wal_bytes[cursor].second < end) ++cursor;
    if (cursor == follower.wal_bytes.size()) break;
    out.push_back(static_cast<double>(follower.wal_bytes[cursor].first - ingest.due_ns[i]) * 1e-6);
  }
  return out;
}

/// One paced replay of `events` with the follower watched until its WAL
/// holds all of them.
struct StreamRun {
  IngestLog ingest;
  FollowerLog follower;
  std::vector<double> visible_ms;
};

void run_stream(Stack& stack, std::span<const ForumEvent> events, std::int64_t start_ns,
                double interval_us, StreamRun& run, Gate& gate) {
  const std::string wal = fc::stream::wal_path(stack.follower_wal_dir());
  const std::int64_t wal_start = file_size(wal);
  std::atomic<bool> stop{false};
  std::thread watcher([&] { watch_follower(stack, stop, run.follower); });
  feed(stack, events, start_ns, interval_us, run.ingest);
  const std::int64_t deadline = now_ns() + 30'000'000'000LL;
  while (now_ns() < deadline) {
    run.visible_ms = visibility_ms(run.ingest, run.follower, events, wal_start);
    if (run.visible_ms.size() + run.ingest.failed >= events.size() || !run.follower.error.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  watcher.join();
  run.visible_ms = visibility_ms(run.ingest, run.follower, events, wal_start);
  gate.count(events.size(), run.ingest.failed, "ingest failed: " + run.ingest.error);
  gate.check(run.follower.error.empty(), "watching the follower failed: " + run.follower.error);
  gate.check(run.visible_ms.size() == events.size(), "the follower did not log every event");
}

/// Ingests `events` back to back in chunks (the rest of the stream, so
/// every run ends on the same history), then checks the follower: it must
/// reach the primary's last seq with the primary's digest.
struct Follower {
  double apply_count = std::numeric_limits<double>::quiet_NaN();
  double apply_sum_ms = std::numeric_limits<double>::quiet_NaN();
  double catchup_s = 0.0;  ///< first chunk → the follower holds the last event
};

Follower finish_stream(Stack& stack, std::span<const ForumEvent> events, Gate& gate) {
  const std::int64_t start = now_ns();
  try {
    ingest_chunks(stack, events);
  } catch (const std::exception& error) {
    gate.check(false, std::string("ingest failed: ") + error.what());
  }
  const std::uint64_t head = stack.live().last_seq();
  const fc::net::ReplicaStatusInfo status = wait_follower(stack);
  const double catchup_s = static_cast<double>(now_ns() - start) * 1e-9;
  gate.check(status.applied_seq == head, "follower never reached seq " + std::to_string(head));
  gate.check(status.digest == stack.live().digest(),
             "follower digest differs from the primary at seq " + std::to_string(head));
  // The follower's own apply histogram, read while it still serves.
  Follower follower;
  follower.catchup_s = catchup_s;
  const std::string json = bounded_client(stack.follower_port()).metrics_json();
  const std::size_t at = json.find("\"stream.apply_ms\":{");
  if (at != std::string::npos) {
    const std::string histogram = json.substr(at);
    follower.apply_count = json_number_after(histogram, "\"count\":");
    follower.apply_sum_ms = json_number_after(histogram, "\"sum\":");
  }
  return follower;
}

// ---------------------------------------------------------------------------
// Output.

/// The reported metrics. A value that is not finite has no source (an
/// absent span, counter or histogram, nothing observed, a zero denominator):
/// it is listed in `missing`, which fails the run, instead of reading as 0.
struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> values;
  std::vector<std::string> missing;
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) missing.push_back(name);
    values.emplace_back(name, value, unit);
  }
};

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.values.size(); ++i) {
    const auto& [name, value, unit] = metrics.values[i];
    out += (i ? ", " : "") + quoted(name) + ": {\"value\": " + number(value) +
           ", \"unit\": " + quoted(unit) + "}";
  }
  return out + "}";
}

std::string cpu_flags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) == 0) {
      std::string out;
      for (const char* flag : {"avx2", "avx512f", "avx512_vnni"}) {
        if ((" " + line + " ").find(std::string(" ") + flag + " ") != std::string::npos) {
          out += (out.empty() ? "" : ",") + std::string(flag);
        }
      }
      return out.empty() ? "none" : out;
    }
  }
  return "unknown";
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Latencies (ms) of the successful `kind` requests sent in [from_ns, to_ns),
/// timed from the due time (open loop) or the send.
std::vector<double> select_ms(const std::vector<RequestResult>& results, RequestKind kind,
                              bool from_due, std::int64_t from_ns, std::int64_t to_ns) {
  std::vector<double> out;
  for (const RequestResult& r : results) {
    if (r.status != Status::kOk || r.kind != kind) continue;
    if (r.send_ns < from_ns || r.send_ns >= to_ns) continue;
    out.push_back(static_cast<double>(r.recv_ns - (from_due ? r.due_ns : r.send_ns)) * 1e-6);
  }
  return out;
}

std::vector<double> ack_ms(const IngestLog& log) {
  std::vector<double> out;
  for (std::size_t i = 0; i < log.due_ns.size(); ++i) {
    if (log.ack_ns[i] != 0) out.push_back(static_cast<double>(log.ack_ns[i] - log.due_ns[i]) * 1e-6);
  }
  return out;
}

double ratio(double a, double b) {
  return b != 0.0 ? a / b : std::numeric_limits<double>::quiet_NaN();
}

/// Health pings every kPingIntervalNs until `stop`: the wire round trip
/// without batching or scoring (the server answers them on its event loop).
void ping(std::uint16_t port, const std::atomic<bool>& stop, std::vector<double>& rtt_ms) {
  fc::net::Client client = bounded_client(port);
  while (!stop.load(std::memory_order_acquire)) {
    const std::int64_t t = now_ns();
    client.health();
    rtt_ms.push_back(static_cast<double>(now_ns() - t) * 1e-6);
    std::this_thread::sleep_for(std::chrono::nanoseconds(t + kPingIntervalNs - now_ns()));
  }
}

// ---------------------------------------------------------------------------
// One run.

int run_bench(const Options& opt) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) found = &w;
  }
  if (found == nullptr) throw std::runtime_error("unknown workload " + opt.workload);
  const Workload& w = *found;
  fc::obs::TraceCollector& tracer = fc::obs::TraceCollector::global();
  fc::obs::MetricsRegistry& registry = fc::obs::MetricsRegistry::global();
  const std::size_t cores = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t connections = std::min<std::size_t>(4, cores);

  StackConfig config;
  config.cli = opt.cli;
  // One forum for every seed: per-seed forums differ enough in size to move
  // rss_mb by more than its bound between seeds.
  config.seed = kForumSeed;
  if (opt.small) {
    config.users = 200;
    config.questions = 300;
  }
  std::cout << "{\"perfbench_env\": {\"workload\": " << quoted(w.name)
            << ", \"seed\": " << opt.seed << ", \"seconds\": " << number(opt.seconds)
            << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"nproc\": " << cores
            << ", \"isa\": " << quoted(cpu_flags())
            << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"FORUMCAST_NATIVE\": " << PERFBENCH_NATIVE
            << ", \"FORUMCAST_OBS\": " << PERFBENCH_OBS
            << ", \"fit_threads\": " << config.fit_threads
            << ", \"git_describe\": " << quoted(opt.git_describe)
            << ", \"users\": " << config.users << ", \"questions\": " << config.questions
            << "}}" << std::endl;

  Gate gate;
  Metrics metrics;

  // Set-up, repeated: setup_s is the median. The traced run sets up once,
  // with spans on, for the fit-stage numbers.
  const std::size_t setups = opt.trace || opt.small ? 1 : kSetups;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  Inputs inputs;
  if (opt.trace) tracer.set_enabled(true);
  for (std::size_t i = 0; i < setups; ++i) {
    config.work = opt.work + "/setup" + std::to_string(i);
    const std::int64_t t = now_ns();
    stack = std::make_unique<Stack>(config);
    const std::int64_t planning = now_ns();
    inputs = make_inputs(w, opt, *stack);
    const std::int64_t warming = now_ns();
    warm(*stack, inputs);
    setup_s.push_back(static_cast<double>(now_ns() - warming + planning - t) * 1e-9);
    if (i + 1 < setups) {
      stack.reset();
      std::filesystem::remove_all(config.work);
    }
  }
  // Set-up spans by name (the fit-stage metrics); NaN when a span is absent.
  std::map<std::string, fc::obs::TraceCollector::AggregateRow> fit;
  for (const auto& row : tracer.aggregate()) fit[row.name] = row;
  const auto fit_ms = [&fit](const std::string& span, bool total) {
    const auto it = fit.find(span);
    if (it == fit.end()) return std::numeric_limits<double>::quiet_NaN();
    return total ? it->second.total_ms : it->second.mean_ms;
  };
  tracer.set_enabled(false);
  tracer.clear();
  ::malloc_trim(0);  // earlier set-ups' freed heap must not count as peak
  reset_peak_rss();

  probe(*stack, opt.perturb_probe, gate, "start");

  // The load: a separate generator process.
  const std::string plan_path = config.work + "/plan.bin";
  const std::string results_path = config.work + "/results.bin";
  write_plan(plan_path, inputs.plan);
  const std::int64_t start_ns = now_ns() + kStartDelayNs;
  const std::int64_t end_ns = start_ns + static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::int64_t mid_ns = start_ns + (end_ns - start_ns) / 2;
  const pid_t loadgen = spawn(
      {opt.self, "--role", "loadgen", "--port", std::to_string(stack->port()), "--plan",
       plan_path, "--out", results_path, "--start-ns", std::to_string(start_ns),
       "--seconds", number(opt.seconds), "--connections", std::to_string(connections),
       "--window", std::to_string(w.window)},
      config.work + "/loadgen.log");

  // Traced run: the first half alternates short tracer-on and tracer-off
  // slices (so both see the same load) to measure the tracing overhead; the
  // second half is traced throughout, with health pings beside the load,
  // and gives the per-layer numbers.
  fc::obs::MetricsRegistry::Snapshot window_begin = registry.snapshot();
  std::vector<std::int64_t> slice_starts;  // tracer on in even slices
  std::atomic<bool> stop_ping{false};
  std::vector<double> ping_ms;
  std::string ping_error;
  std::thread pinger;
  if (opt.trace) {
    const auto slice_ns = static_cast<std::int64_t>(kOverheadSliceS * 1e9);
    for (std::int64_t t = start_ns; t < mid_ns; t += slice_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(t - now_ns()));
      tracer.set_enabled(slice_starts.size() % 2 == 0);
      slice_starts.push_back(t);
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(mid_ns - now_ns()));
    tracer.set_enabled(false);
    tracer.clear();
    window_begin = registry.snapshot();
    tracer.set_enabled(true);
    pinger = std::thread([&] {
      try {
        ping(stack->port(), stop_ping, ping_ms);
      } catch (const std::exception& error) {
        ping_error = error.what();
      }
    });
  }
  // Whether the tracer was on at `t` during the first half.
  const auto traced_slice = [&](std::int64_t t) {
    const auto it = std::upper_bound(slice_starts.begin(), slice_starts.end(), t);
    return it != slice_starts.begin() && (it - slice_starts.begin() - 1) % 2 == 0;
  };
  int loadgen_exit = -1;
  if (!wait_exit(loadgen, opt.seconds + 40.0, &loadgen_exit)) {  // its drain ends at +20 s
    stop_process(loadgen);
    loadgen_exit = -1;
  }
  stop_ping.store(true, std::memory_order_release);
  if (pinger.joinable()) pinger.join();
  const fc::obs::MetricsRegistry::Snapshot load_end = registry.snapshot();
  const std::uint64_t load_end_us = tracer.now_us();
  if (loadgen_exit != 0) throw std::runtime_error("load generator failed; see loadgen.log");
  const std::vector<RequestResult> results = read_results(results_path);

  // The traced half's requests in plan order, for the per-layer replays.
  std::vector<std::uint32_t> traced;
  for (const RequestResult& r : results) {
    if (r.status == Status::kOk && r.send_ns >= mid_ns) traced.push_back(r.plan_index);
  }
  std::sort(traced.begin(), traced.end());
  traced.erase(std::unique(traced.begin(), traced.end()), traced.end());
  const auto first_traced = [&traced](std::size_t count) {
    return std::vector<std::uint32_t>(traced.begin(),
                                      traced.begin() + std::min(count, traced.size()));
  };
  // The batcher replay runs first, on the state and caches the load left.
  BatcherReplay batched;
  if (opt.trace) {
    const auto again = first_traced(w.closed_loop ? 4000 : 1600);
    batched = replay_batcher(*stack, inputs.plan, again,
                             w.closed_loop ? connections * w.window : 0);
    gate.count(again.size(), batched.failed, "the batcher replay answered with an error");
  }

  // Static model during the load: every answer can be checked bit for bit.
  verify_answers(*stack, inputs.plan, results, w.closed_loop ? 16 : 1, gate);
  // The tail: paced events on a cold serving cache (so what the load left
  // warm does not decide how much repair ingest does), then the rest of the
  // stream back to back, so recovery and the final digest check always
  // cover the whole stream.
  fc::serve::CacheInvalidation drop;
  drop.drop_all = true;
  stack->scorer().invalidate(drop);
  const auto events =
      std::span<const ForumEvent>(stack->events()).subspan(stream_prefix(stack->events().size()));
  const std::size_t paced = events_in(opt.small ? 1.0 : kTailSeconds, events.size());
  StreamRun stream;
  run_stream(*stack, events.first(paced), now_ns() + 50'000'000, kEventIntervalUs, stream, gate);
  const Follower follower = finish_stream(*stack, events.subspan(paced), gate);
  const fc::obs::MetricsRegistry::Snapshot stream_end = registry.snapshot();
  probe(*stack, opt.perturb_probe, gate, "end");
  const double rss_mb = peak_rss_mb();

  std::size_t queue_full = 0;
  for (const RequestResult& r : results) {
    queue_full += r.status == Status::kQueueFull;
    gate.check(r.status == Status::kOk,
               "request " + std::to_string(r.plan_index) + " status " +
                   std::to_string(static_cast<int>(r.status)));
  }
  std::vector<double> lateness_ms;
  if (!w.closed_loop) {
    for (const RequestResult& r : results) {
      lateness_ms.push_back(static_cast<double>(r.send_ns - r.due_ns) * 1e-6);
    }
  }
  const double lateness_p99 = quantile(lateness_ms, 0.99);
  const double lateness_max = quantile(lateness_ms, 1.0);
  const bool generator_behind = lateness_p99 > kMaxLatenessP99Ms;

  // Per-layer replays into each layer's functions, while the state is
  // still up and quiescent.
  ReplayTimings replay;
  if (opt.trace) replay = replay_layers(*stack, inputs.plan, first_traced(w.closed_loop ? 1500 : 4000));

  // Restart: a new primary state over the same WAL dir must reach the same
  // digest. (Its time is not end to end: between seeds the rebuild moved by
  // 0.14-0.26 of its median, for the same WAL.)
  stack->stop_serving();
  const std::uint64_t live_digest = stack->live().digest();
  const std::uint64_t live_seq = stack->live().last_seq();
  stack->release_state();
  std::int64_t t = now_ns();
  std::shared_ptr<PrimaryState> recovered;
  {
    fc::obs::ScopedSpan span("stream.bench.recover");
    recovered = build_primary_state(stack->base(), stack->bundle(), stack->live_config());
  }
  const double recover_ms = static_cast<double>(now_ns() - t) * 1e-6;
  gate.check(recovered->live->last_seq() == live_seq && recovered->live->digest() == live_digest,
             "recovered state differs from the live one");
  std::vector<double> snapshot_ms;
  for (int k = 0; opt.trace && k < 3; ++k) {
    fc::obs::ScopedSpan span("stream.bench.snapshot");
    t = now_ns();
    recovered->live->snapshot_now();
    snapshot_ms.push_back(static_cast<double>(now_ns() - t) * 1e-6);
  }

  const bool from_due = !w.closed_loop;
  std::string split_detail = "null";  // the serving split's parts (traced run)
  if (!opt.trace) {
    const auto score = select_ms(results, RequestKind::kScore, from_due, 0, INT64_MAX);
    const auto route = select_ms(results, RequestKind::kRoute, from_due, 0, INT64_MAX);
    // Answers per one-second window; score_rps is the median window, so a
    // burst of CPU steal on a shared host moves a window, not the figure.
    std::vector<double> per_second(static_cast<std::size_t>(opt.seconds), 0.0);
    for (const RequestResult& r : results) {
      if (r.status != Status::kOk || r.recv_ns < start_ns) continue;
      const auto window = static_cast<std::size_t>((r.recv_ns - start_ns) / 1'000'000'000);
      if (window < per_second.size()) per_second[window] += 1.0;
    }
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("rss_mb", rss_mb, "MB");
    metrics.add("score_p50_ms", quantile(score, 0.5), "ms");
    metrics.add("score_rps", median(per_second), "req/s");
    metrics.add("route_p50_ms", quantile(route, 0.5), "ms");
  } else {
    RegistryWindow load(window_begin, load_end);     // the traced half of the load
    RegistryWindow ingest(load_end, stream_end);     // the tail and the rest of the stream
    const auto events_in_trace = tracer.events();
    std::vector<double> batch_span_ms;
    for (const auto& event : events_in_trace) {
      if (event.name == "serve.batch_score" && event.start_us < load_end_us) {
        batch_span_ms.push_back(static_cast<double>(event.dur_us) * 1e-3);
      }
    }
    // The serving split: the traced half's mean client latency (send to
    // receive) against three parts measured on their own — the wire (health
    // ping round trip plus the frame codec replay), the batcher's queue wait
    // and its service time (the batcher replay).
    std::vector<double> client_ms = select_ms(results, RequestKind::kScore, false, mid_ns, INT64_MAX);
    const auto route_ms = select_ms(results, RequestKind::kRoute, false, mid_ns, INT64_MAX);
    client_ms.insert(client_ms.end(), route_ms.begin(), route_ms.end());
    const double wire_ms = mean(ping_ms) + mean(replay.codec_us) * 1e-3;
    const double queue_wait_ms = mean(batched.queue_ms);
    const double service_ms = mean(batched.service_ms);
    const double split_error_pct =
        std::abs(wire_ms + queue_wait_ms + service_ms - mean(client_ms)) / mean(client_ms) * 100.0;
    split_detail = "{\"client_ms\": " + number(mean(client_ms)) + ", \"wire_ms\": " +
                   number(wire_ms) + ", \"queue_wait_ms\": " + number(queue_wait_ms) +
                   ", \"service_ms\": " + number(service_ms) + "}";
    std::vector<double> overhead_on, overhead_off;
    for (const RequestResult& r : results) {
      const std::int64_t start = from_due ? r.due_ns : r.send_ns;
      if (r.status != Status::kOk || r.kind != RequestKind::kScore || start >= mid_ns) continue;
      (traced_slice(start) ? overhead_on : overhead_off)
          .push_back(static_cast<double>(r.recv_ns - start) * 1e-6);
    }
    const double refreshes = ingest.hist_count("features.centrality_refresh_ms");
    const double untraced_p50 = quantile(overhead_off, 0.5);
    metrics.add("net.wire_ms", wire_ms, "ms");
    metrics.add("net.ping_rtt_ms", mean(ping_ms), "ms");
    metrics.add("net.frame_codec_us", mean(replay.codec_us), "us");
    metrics.add("net.request_ms.p50", load.hist_quantile("net.request_ms", 0.5), "ms");
    metrics.add("net.request_ms.p99", load.hist_quantile("net.request_ms", 0.99), "ms");
    metrics.add("net.queue_wait_ms", queue_wait_ms, "ms");
    metrics.add("net.requests_per_batch",
                ratio(load.counter("net.requests_scored"), load.counter("net.score_batches")),
                "count");
    metrics.add("net.rejected_queue_full", static_cast<double>(queue_full), "count");
    metrics.add("net.split_error_pct", split_error_pct, "%");
    metrics.add("serve.score_ms.p50", quantile(replay.score_ms, 0.5), "ms");
    metrics.add("serve.score_ms.p99", quantile(replay.score_ms, 0.99), "ms");
    metrics.add("serve.batch_service_ms", service_ms, "ms");
    metrics.add("serve.batch_score_ms", mean(batch_span_ms), "ms");
    const double question_hits = load.counter("serve.cache.question_hits");
    const double user_hits = load.counter("serve.cache.user_hits");
    metrics.add("serve.cache.question_hit_ratio",
                ratio(question_hits, question_hits + load.counter("serve.cache.question_misses")),
                "ratio");
    metrics.add("serve.cache.user_hit_ratio",
                ratio(user_hits, user_hits + load.counter("serve.cache.user_misses")), "ratio");
    metrics.add("serve.question_block_ms", mean(replay.question_block_ms), "ms");
    metrics.add("serve.assemble_us_per_row", replay.assemble_us_per_row, "us");
    metrics.add("core.fwd_answer_us_per_row", replay.fwd_answer_us_per_row, "us");
    metrics.add("core.fwd_vote_us_per_row", replay.fwd_vote_us_per_row, "us");
    metrics.add("core.fwd_timing_us_per_row", replay.fwd_timing_us_per_row, "us");
    metrics.add("opt.solve_routing_ms", mean(replay.recommend_ms), "ms");
    const auto acks = ack_ms(stream.ingest);
    metrics.add("stream.ack_p50_ms", quantile(acks, 0.5), "ms");
    metrics.add("stream.ack_p90_ms", quantile(acks, 0.9), "ms");
    metrics.add("replica.visible_p50_ms", quantile(stream.visible_ms, 0.5), "ms");
    metrics.add("replica.visible_p90_ms", quantile(stream.visible_ms, 0.9), "ms");
    metrics.add("stream.catchup_s", follower.catchup_s, "s");
    metrics.add("stream.ingest_ms.p50", quantile(stream.ingest.call_ms, 0.5), "ms");
    metrics.add("stream.ingest_ms.p99", quantile(stream.ingest.call_ms, 0.99), "ms");
    metrics.add("stream.apply_ms", ingest.hist_mean("stream.apply_ms"), "ms");
    metrics.add("stream.wal.fsync_ms", ingest.hist_mean("stream.wal.fsync_ms"), "ms");
    metrics.add("stream.snapshot_ms", mean(snapshot_ms), "ms");
    metrics.add("stream.recover_ms", recover_ms, "ms");
    metrics.add("stream.wal.bytes_per_event",
                ratio(ingest.counter("stream.wal.bytes"), ingest.counter("stream.wal.records")), "B");
    metrics.add("features.centrality_refresh_ms", ingest.hist_mean("features.centrality_refresh_ms"), "ms");
    metrics.add("graph.pivots_per_refresh", ratio(ingest.counter("centrality.sampled_pivots"), refreshes), "count");
    metrics.add("graph.dirty_vertices_per_refresh", ratio(ingest.counter("centrality.dirty_vertices"), refreshes), "count");
    metrics.add("topics.fold_ins_per_event",
                ratio(ingest.counter("lda.fold_ins"), ingest.counter("stream.events.applied")), "count");
    metrics.add("features.build_ms", fit_ms("features.build", true), "ms");
    metrics.add("graph.centrality_rebuild_ms", fit_ms("graph.centrality_rebuild", true), "ms");
    metrics.add("topics.lda_fit_ms", fit_ms("lda.fit", true), "ms");
    metrics.add("core.fit_answer_ms", fit_ms("answer.fit", true), "ms");
    metrics.add("core.fit_vote_ms", fit_ms("vote.fit", true), "ms");
    metrics.add("core.fit_timing_ms", fit_ms("timing.fit", true), "ms");
    metrics.add("artifact.save_ms", fit_ms("pipeline.save", false), "ms");
    metrics.add("artifact.load_ms", fit_ms("pipeline.load", false), "ms");
    metrics.add("artifact.bundle_bytes", static_cast<double>(stack->bundle().size()), "B");
    metrics.add("replica.events_per_ship",
                ratio(ingest.counter("replica.events_shipped"), ingest.counter("replica.batches_shipped")),
                "count");
    metrics.add("replica.follower_apply_ms", ratio(follower.apply_sum_ms, follower.apply_count), "ms");
    metrics.add("replica.bootstrap_s", stack->times().follower_s, "s");
    metrics.add("ml.workspace_bytes", load.gauge("ml.workspace_bytes"), "B");
    metrics.add("obs.trace_overhead_pct",
                (quantile(overhead_on, 0.5) - untraced_p50) / untraced_p50 * 100.0, "%");
    const auto self = layer_self_ms(events_in_trace);
    for (const std::string& layer : reported_layers()) {
      const auto it = self.find(layer);
      metrics.add(layer + ".self_ms",
                  it != self.end() ? it->second : std::numeric_limits<double>::quiet_NaN(), "ms");
    }
    gate.check(ping_error.empty(), "health pings failed: " + ping_error);
    for (const std::string& name : load.broken) gate.check(false, "histogram " + name + " sums to 0");
    for (const std::string& name : ingest.broken) gate.check(false, "histogram " + name + " sums to 0");
    if (!opt.trace_out.empty()) write_chrome_trace(opt.trace_out, results);
  }
  for (const std::string& name : metrics.missing) {
    gate.check(false, "metric " + name + " has no source (nothing observed)");
  }

  const bool correct = gate.failed == 0 && !generator_behind;
  const auto list = [](const std::vector<double>& values) {
    std::string out;
    for (const double v : values) out += (out.empty() ? "" : ", ") + number(v);
    return "[" + out + "]";
  };
  const auto score = select_ms(results, RequestKind::kScore, from_due, 0, INT64_MAX);
  const SetupTimes& times = stack->times();
  std::cout << "{\"perfbench_detail\": {\"setup_s\": " << list(setup_s)
            << ", \"generate_s\": " << number(times.generate_s)
            << ", \"fit_s\": " << number(times.fit_s)
            << ", \"bundle_save_ms\": " << number(times.save_ms)
            << ", \"state_load_ms\": " << number(times.load_ms)
            << ", \"follower_bootstrap_s\": " << number(times.follower_s)
            << ", \"requests\": " << results.size()
            << ", \"queue_full\": " << queue_full
            << ", \"events\": " << stream.ingest.due_ns.size()
            << ", \"lateness_p99_ms\": " << number(lateness_p99)
            << ", \"lateness_max_ms\": " << number(lateness_max)
            << ", \"generator_behind\": " << (generator_behind ? "true" : "false")
            << ", \"score_p90_p95_p99_ms\": "
            << list({quantile(score, 0.9), quantile(score, 0.95), quantile(score, 0.99)})
            << ", \"recover_ms\": " << number(recover_ms) << ", \"split\": " << split_detail
            << ", \"failures\": [";
  for (std::size_t i = 0; i < gate.failures.size(); ++i) {
    std::cout << (i ? ", " : "") << quoted(gate.failures[i]);
  }
  std::cout << "]}}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << gate.attempted << ", \"failed\": " << gate.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "perfbench: expected --flag, got " << key << "\n";
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  try {
    if (args.count("role") && args["role"] == "loadgen") return perfbench::run_loadgen(args);
    perfbench::Options opt;
    opt.workload = args.at("workload");
    opt.seed = std::stoull(args.at("seed"));
    opt.seconds = std::stod(args.at("seconds"));
    opt.trace = args.at("trace") == "1";
    opt.work = args.at("work");
    opt.cli = args.at("cli");
    opt.self = std::filesystem::canonical("/proc/self/exe").string();
    if (args.count("trace-out")) opt.trace_out = args["trace-out"];
    if (args.count("git-describe")) opt.git_describe = args["git-describe"];
    opt.small = args.count("small") && args["small"] == "1";
    opt.perturb_probe = args.count("perturb-probe") && args["perturb-probe"] == "1";
    return perfbench::run_bench(opt);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
