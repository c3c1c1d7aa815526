// Wire-serving throughput: the epoll daemon + micro-batcher under a
// closed-loop load generator (ctest-free; run via tools/run_bench.sh).
//
// BM_NetScore/<C> drives C concurrent connections, each with one
// outstanding 4-candidate score request (closed loop), from a single
// generator thread multiplexing non-blocking sockets over poll(). One
// generator thread — not C client threads — because the benchmark machine
// may have a single core: thread-per-connection would measure the
// scheduler, not the server. Connections spread across four hot questions,
// so the micro-batcher coalesces concurrent requests into a handful of
// BatchScorer passes per wakeup; the concurrency sweep (1 → 8 → 64) shows
// batching turning concurrency into throughput rather than queueing delay.
//
// Counters: items_per_second is completed requests/sec (the acceptance
// metric tools/run_bench.sh guards with BENCH_NET_MIN_RPS), p50_ms/p99_ms
// are client-observed round-trip latencies. The batcher is work-conserving,
// so at c=1 the p50 is one round trip plus one score pass; at higher
// concurrency the requests that arrive during a pass form the next batch.
//
// BM_NetPing measures the protocol + event-loop floor (health requests
// bypass the batcher), isolating framing/epoll overhead from scoring.
//
// BM_NetScoreColdWorkers/<W> is the worker-scaling sweep: a daemon with W
// batcher workers over a 2000-user, 3000-question forum (gen seed 5,
// sampled centrality), 16 closed-loop connections, each request 256 random
// candidates for a uniformly random question. Almost every request misses
// the 64-block question cache, so each one builds its question block and
// runs 256-row forwards; with questions rarely shared, requests do not
// coalesce and throughput comes only from workers scoring side by side.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "forum/generator.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serve/batch_scorer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace forumcast;

struct NetBenchFixture {
  forum::Dataset dataset;
  std::shared_ptr<const core::ForecastPipeline> pipeline;
  std::unique_ptr<serve::BatchScorer> scorer;
  std::unique_ptr<net::Server> server;
  std::thread loop;

  static NetBenchFixture& instance() {
    static NetBenchFixture fixture;
    return fixture;
  }

  std::uint16_t port() const { return server->port(); }

  ~NetBenchFixture() {
    server->stop();
    if (loop.joinable()) loop.join();
  }

 private:
  NetBenchFixture() : dataset(make_dataset()) {
    auto fitted = std::make_shared<core::ForecastPipeline>(make_config());
    fitted->fit(dataset, dataset.questions_in_days(1, 25));
    pipeline = std::move(fitted);
    scorer = std::make_unique<serve::BatchScorer>(pipeline);
    net::ServerConfig config;
    // Caps one pass below the 64-connection sweep, so at c=64 the queue
    // holds the next batch while the current one scores.
    config.batcher.max_batch_requests = 32;
    server = std::make_unique<net::Server>(*scorer, dataset, config);
    loop = std::thread([this] { server->run(); });
  }

  static forum::Dataset make_dataset() {
    forum::GeneratorConfig config;
    config.num_users = 400;
    config.num_questions = 300;
    config.mean_extra_answers = 2.0;
    config.seed = 41;
    return forum::generate_forum(config).dataset.preprocessed();
  }

  static core::PipelineConfig make_config() {
    core::PipelineConfig config;
    config.extractor.lda.iterations = 15;
    config.answer.logistic.epochs = 30;
    config.vote.epochs = 10;
    config.timing.epochs = 5;
    config.survival_samples_per_thread = 5;
    config.timing.expectation =
        core::TimingPredictorConfig::Expectation::PaperUnnormalized;
    config.timing.learn_omega = false;
    config.timing.f_hidden = {20, 10};
    return config;
  }
};

/// C non-blocking loopback connections multiplexed over poll() from the
/// calling thread, each running a closed loop of pre-encoded requests (one
/// outstanding per connection). Connection i repeats frame i mod F, or with
/// `rotate` every request takes the next frame of the list in turn.
class LoadGenerator {
 public:
  LoadGenerator(std::uint16_t port, std::size_t connections,
                std::vector<std::string> request_frames, bool rotate = false)
      : frames_(std::move(request_frames)), rotate_(rotate) {
    conns_.resize(connections);
    for (std::size_t i = 0; i < connections; ++i) {
      Conn& conn = conns_[i];
      conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      FORUMCAST_CHECK_MSG(conn.fd >= 0, "socket(): " << std::strerror(errno));
      int one = 1;
      ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      FORUMCAST_CHECK_MSG(
          ::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0,
          "connect(): " << std::strerror(errno));
      const int flags = ::fcntl(conn.fd, F_GETFL, 0);
      ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK);
      conn.frame = &frames_[i % frames_.size()];
    }
  }

  ~LoadGenerator() {
    for (const Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
  }

  /// Completes `total` requests across the connections; appends one
  /// client-observed round-trip latency (ms) per request to `latencies_ms`.
  void run(std::size_t total, std::vector<double>& latencies_ms) {
    std::size_t started = 0;
    std::size_t completed = 0;
    std::vector<pollfd> fds(conns_.size());

    for (Conn& conn : conns_) {
      if (started < total) {
        begin_request(conn);
        ++started;
      } else {
        conn.in_flight = false;
      }
    }

    while (completed < total) {
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        fds[i].fd = conns_[i].fd;
        fds[i].events = static_cast<short>(
            (conns_[i].in_flight ? POLLIN : 0) |
            (conns_[i].pending_out.empty() ? 0 : POLLOUT));
        fds[i].revents = 0;
      }
      const int ready = ::poll(fds.data(), fds.size(), 1000);
      FORUMCAST_CHECK_MSG(ready > 0, "poll(): stalled or failed ("
                                         << std::strerror(errno) << ")");
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn& conn = conns_[i];
        if (fds[i].revents & POLLOUT) flush(conn);
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          if (drain(conn)) {
            ++completed;
            if (started < total) {
              begin_request(conn);
              ++started;
            } else {
              conn.in_flight = false;
            }
          }
        }
      }
    }

    latencies_ms.insert(latencies_ms.end(), latencies_.begin(),
                        latencies_.end());
    latencies_.clear();
  }

 private:
  struct Conn {
    int fd = -1;
    const std::string* frame = nullptr;
    std::string pending_out;
    std::string in;
    bool in_flight = false;
    std::chrono::steady_clock::time_point sent_at{};
  };

  void begin_request(Conn& conn) {
    if (rotate_) conn.frame = &frames_[next_frame_++ % frames_.size()];
    conn.in_flight = true;
    conn.sent_at = std::chrono::steady_clock::now();
    conn.pending_out.append(*conn.frame);
    flush(conn);
  }

  void flush(Conn& conn) {
    while (!conn.pending_out.empty()) {
      const ssize_t n = ::send(conn.fd, conn.pending_out.data(),
                               conn.pending_out.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        FORUMCAST_CHECK_MSG(false, "send(): " << std::strerror(errno));
      }
      conn.pending_out.erase(0, static_cast<std::size_t>(n));
    }
  }

  /// Reads whatever is available; returns true when a full response frame
  /// for the outstanding request completed.
  bool drain(Conn& conn) {
    char chunk[8192];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        FORUMCAST_CHECK_MSG(false, "recv(): " << std::strerror(errno));
      }
      FORUMCAST_CHECK_MSG(n != 0, "server closed a bench connection");
      conn.in.append(chunk, static_cast<std::size_t>(n));
    }
    const net::DecodeFrameResult decoded = net::decode_frame(conn.in);
    if (decoded.bytes_consumed == 0) {
      FORUMCAST_CHECK_MSG(!decoded.corrupt, "corrupt frame from server");
      return false;
    }
    FORUMCAST_CHECK_MSG(
        decoded.message.kind != net::MessageKind::kErrorResponse,
        "server returned an error frame: " << decoded.message.text);
    conn.in.erase(0, decoded.bytes_consumed);
    latencies_.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - conn.sent_at)
                             .count());
    return true;
  }

  std::vector<std::string> frames_;
  bool rotate_ = false;
  std::size_t next_frame_ = 0;
  std::vector<Conn> conns_;
  std::vector<double> latencies_;
};

void record_quantiles(benchmark::State& state, std::vector<double>& latencies) {
  if (latencies.empty()) return;
  std::sort(latencies.begin(), latencies.end());
  const auto at = [&](double q) {
    const std::size_t index = std::min(
        latencies.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(latencies.size())));
    return latencies[index];
  };
  state.counters["p50_ms"] = at(0.50);
  state.counters["p99_ms"] = at(0.99);
}

std::vector<std::string> score_frames(const NetBenchFixture& fixture) {
  // Four hot questions: concurrent requests for the same question coalesce
  // into one BatchScorer pass sharing the cached question block.
  std::vector<std::string> frames;
  for (std::uint32_t q = 0; q < 4; ++q) {
    net::Message request;
    request.kind = net::MessageKind::kScoreRequest;
    request.request_id = q + 1;
    request.question =
        static_cast<forum::QuestionId>(q % fixture.dataset.num_questions());
    request.users = {0, 1, 2, 3};
    std::string frame;
    net::append_frame(frame, request);
    frames.push_back(std::move(frame));
  }
  return frames;
}

void BM_NetScore(benchmark::State& state) {
  NetBenchFixture& fixture = NetBenchFixture::instance();
  const auto concurrency = static_cast<std::size_t>(state.range(0));
  LoadGenerator generator(fixture.port(), concurrency, score_frames(fixture));
  const std::size_t per_iteration = 64 * concurrency;

  std::vector<double> latencies;
  for (auto _ : state) {
    generator.run(per_iteration, latencies);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * per_iteration));
  record_quantiles(state, latencies);
}
BENCHMARK(BM_NetScore)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();  // the generator sleeps in poll(); CPU time would lie

void BM_NetPing(benchmark::State& state) {
  // Health requests are answered inline by the event loop — no batcher, no
  // scoring — so this is the wire + epoll round-trip floor.
  NetBenchFixture& fixture = NetBenchFixture::instance();
  net::Message request;
  request.kind = net::MessageKind::kHealthRequest;
  request.request_id = 1;
  std::string frame;
  net::append_frame(frame, request);
  LoadGenerator generator(fixture.port(), 1, {frame});

  std::vector<double> latencies;
  for (auto _ : state) {
    generator.run(256, latencies);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 256));
  record_quantiles(state, latencies);
}
BENCHMARK(BM_NetPing)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The worker sweep's forum, model and request frames (see the header).
struct ColdSweepFixture {
  forum::Dataset dataset;
  std::shared_ptr<const core::ForecastPipeline> pipeline;
  std::vector<std::string> frames;

  static ColdSweepFixture& instance() {
    static ColdSweepFixture fixture;
    return fixture;
  }

 private:
  ColdSweepFixture() : dataset(make_dataset()) {
    auto fitted = std::make_shared<core::ForecastPipeline>(make_config());
    fitted->fit(dataset, dataset.questions_in_days(1, 25));
    pipeline = std::move(fitted);

    util::Rng rng(7);
    std::vector<forum::UserId> population(dataset.num_users());
    for (std::size_t u = 0; u < population.size(); ++u) {
      population[u] = static_cast<forum::UserId>(u);
    }
    for (std::uint64_t id = 1; id <= 4096; ++id) {
      net::Message request;
      request.kind = net::MessageKind::kScoreRequest;
      request.request_id = id;
      request.question = static_cast<forum::QuestionId>(
          rng.uniform_index(dataset.num_questions()));
      rng.shuffle(population);
      request.users.assign(population.begin(), population.begin() + 256);
      std::string frame;
      net::append_frame(frame, request);
      frames.push_back(std::move(frame));
    }
  }

  static forum::Dataset make_dataset() {
    forum::GeneratorConfig config;
    config.num_users = 2000;
    config.num_questions = 3000;
    config.seed = 5;
    return forum::generate_forum(config).dataset.preprocessed();
  }

  static core::PipelineConfig make_config() {
    core::PipelineConfig config;
    config.extractor.lda.iterations = 15;
    config.extractor.centrality.mode = graph::CentralityMode::kSampled;
    config.answer.logistic.epochs = 30;
    config.vote.epochs = 10;
    config.timing.epochs = 5;
    config.survival_samples_per_thread = 5;
    config.timing.learn_omega = false;
    config.timing.f_hidden = {20, 10};
    config.fit_threads = 4;
    return config;
  }
};

void BM_NetScoreColdWorkers(benchmark::State& state) {
  ColdSweepFixture& fixture = ColdSweepFixture::instance();
  serve::BatchScorer scorer(fixture.pipeline);
  net::ServerConfig config;
  config.batcher.threads = static_cast<std::size_t>(state.range(0));
  net::Server server(scorer, fixture.dataset, config);
  std::thread loop([&server] { server.run(); });

  constexpr std::size_t kConnections = 16;
  const std::size_t per_iteration = 16 * kConnections;
  std::vector<double> latencies;
  {
    LoadGenerator generator(server.port(), kConnections, fixture.frames,
                            /*rotate=*/true);
    // Warm-up outside the timing: the user table, workspace arenas and the
    // first cache fills, so every worker count starts from the same state.
    generator.run(4 * kConnections, latencies);
    latencies.clear();
    for (auto _ : state) {
      generator.run(per_iteration, latencies);
    }
  }
  server.stop();
  loop.join();
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * per_iteration));
  state.counters["workers"] = static_cast<double>(state.range(0));
  record_quantiles(state, latencies);
}
BENCHMARK(BM_NetScoreColdWorkers)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MinTime(2.0)  // a 1-worker iteration is ~0.4 s; average several
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
