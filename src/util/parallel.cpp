#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace forumcast::util {

namespace {

/// One parallel_for_chunks call. Participants (the caller plus any helpers
/// that join) claim chunks from the shared cursor until it runs out.
struct Job {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t count = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> cursor{0};
  /// Helper seats still open, helpers that took one, and helpers still
  /// inside run_chunks(); all three guarded by the pool mutex.
  std::size_t seats = 0;
  std::size_t joined = 0;
  std::size_t running = 0;
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::vector<double> busy_seconds;  // slot 0 = caller, then each helper

  void run_chunks(std::size_t slot) {
    const auto started = std::chrono::steady_clock::now();
    for (;;) {
      const std::size_t begin = cursor.fetch_add(chunk);
      if (begin >= count) break;
      const std::size_t end = std::min(count, begin + chunk);
      try {
        (*body)(begin, end);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        cursor.store(count);  // stop every participant early
        break;
      }
    }
    busy_seconds[slot] = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  }
};

/// Process-wide helper threads, started on first use and joined at exit. A
/// caller posts its job, works on it itself, then waits only for chunks
/// helpers already claimed — never for unstarted work — so a body that
/// calls parallel_for again (or several callers at once) cannot deadlock:
/// at worst the caller runs its whole range alone.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool(default_thread_count() - 1);
    return pool;
  }

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    work_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  std::size_t helpers() const { return helpers_.size(); }

  void run(Job& job) {
    const std::size_t seats = job.seats;
    if (seats > 0) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(&job);
      }
      if (seats == 1) {
        work_.notify_one();
      } else {
        work_.notify_all();
      }
    }
    job.run_chunks(0);
    std::unique_lock<std::mutex> lock(mutex_);
    // No helper may join once the caller is done: withdraw unfilled seats.
    if (const auto it = std::find(queue_.begin(), queue_.end(), &job);
        it != queue_.end()) {
      queue_.erase(it);
    }
    done_.wait(lock, [&job] { return job.running == 0; });
  }

 private:
  explicit Pool(std::size_t helpers) {
    helpers_.reserve(helpers);
    for (std::size_t i = 0; i < helpers; ++i) {
      try {
        helpers_.emplace_back([this] { helper_loop(); });
      } catch (const std::system_error&) {
        break;  // fewer helpers only means less parallelism
      }
    }
  }

  void helper_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      Job* job = queue_.front();
      const std::size_t slot = ++job->joined;
      if (--job->seats == 0) queue_.pop_front();
      ++job->running;
      lock.unlock();
      job->run_chunks(slot);
      lock.lock();
      if (--job->running == 0) done_.notify_all();
    }
  }

  std::mutex mutex_;  // guards queue_, stopping_ and every queued Job's seats
  std::condition_variable work_;
  std::condition_variable done_;
  std::deque<Job*> queue_;
  bool stopping_ = false;
  std::vector<std::thread> helpers_;  // last: helpers use the members above
};

}  // namespace

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  FORUMCAST_CHECK(body != nullptr);
  parallel_for_chunks(
      count,
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      threads);
}

void parallel_for_chunks(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t threads, std::size_t grain) {
  FORUMCAST_CHECK(body != nullptr);
  if (count == 0) return;
  if (threads == 0) threads = default_thread_count();
  threads = std::min(threads, count);

  if (threads <= 1 || count < 2 || count <= grain) {
    body(0, count);
    return;
  }

  FORUMCAST_SPAN_NAMED(span, "util.parallel_for");
  FORUMCAST_COUNTER_ADD("parallel.invocations", 1);

  // Dynamic chunking via an atomic cursor: balances uneven per-index work
  // (BFS cost varies a lot by component size) without a scheduler.
  Pool& pool = Pool::instance();
  Job job;
  job.body = &body;
  job.count = count;
  job.chunk = std::max({grain, std::size_t{1}, count / (threads * 8)});
  job.seats = std::min(threads - 1, pool.helpers());
  job.busy_seconds.assign(job.seats + 1, 0.0);
  pool.run(job);

  // Chunk-imbalance gauge over the participants: 0 = perfectly even
  // runtimes, 1 = one participant did all the waiting. Drives chunk-size
  // tuning in perf PRs.
  const auto participants = job.busy_seconds.begin() +
                            static_cast<std::ptrdiff_t>(job.joined + 1);
  const auto [min_it, max_it] =
      std::minmax_element(job.busy_seconds.begin(), participants);
  const double imbalance =
      *max_it > 0.0 ? (*max_it - *min_it) / *max_it : 0.0;
  FORUMCAST_GAUGE_SET("parallel.imbalance", imbalance);
  if (span.active()) {
    span.arg("count", static_cast<double>(count));
    span.arg("threads", static_cast<double>(threads));
    span.arg("imbalance", imbalance);
  }

  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace forumcast::util
