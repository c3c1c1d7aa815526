// Async micro-batcher: coalesces concurrent wire requests into
// serve::BatchScorer batches.
//
// The serving daemon's throughput story: single-pair scoring costs a full
// feature assembly + three one-row model forwards, while BatchScorer
// amortizes both across a block of rows. Wire requests arrive a few
// candidates at a time. The batcher is work-conserving: an idle worker takes
// whatever is queued (up to `max_batch_requests`) at once, so a lone request
// never waits for company and requests arriving during a pass form the next
// batch. It groups everything pending for the same question into one
// score() call (the cached question block and the GEMM tiles are shared),
// and answers every request from its slice of the batch. Scores are
// bit-identical to an unbatched call — coalescing, like batching itself,
// is purely an execution-layout change.
//
// Admission control: the queue is bounded. try_submit() refuses (the
// caller answers with a typed kQueueFull error frame) instead of letting
// the queue — and every queued request's latency — grow without bound.
//
// Threading: submissions come from the server's event loop; `threads`
// workers (one per core by default) drain the queue. They are the serving
// stack's only parallelism: BatchScorer::score runs a call's row blocks on
// the worker that made it, and holds its lock only to snapshot the model
// and cache, so workers scoring different groups run side by side instead
// of queueing behind one another. Completions are handed back through the
// CompletionFn (which must be thread-safe — the server's implementation
// pushes to a locked list and wakes the event loop via eventfd).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "forum/dataset.hpp"
#include "net/protocol.hpp"
#include "serve/batch_scorer.hpp"
#include "util/parallel.hpp"

namespace forumcast::net {

struct BatcherConfig {
  /// Most requests drained per wake. Bounds the rows one score() pass
  /// assembles and the tail latency a drain adds to its last request.
  std::size_t max_batch_requests = 256;
  /// Admission bound on queued requests; try_submit() refuses beyond it.
  std::size_t max_queue = 4096;
  /// Scoring worker threads: one per core, since score() runs lock-free on
  /// its caller's thread and concurrent groups each use a core.
  std::size_t threads = util::default_thread_count();
  /// Returns an opaque RAII token holding whatever lock makes scoring safe
  /// against concurrent mutation — replication nodes (a primary ingesting
  /// while serving, a follower applying shipped batches) pass the
  /// LiveState reader lock. Unset = the dataset is static, no lock needed.
  /// Also taken around health reads on the server's event loop.
  std::function<std::shared_ptr<void>()> read_guard;
  /// Overrides the built-in kSwapRequest handling (load the bundle against
  /// the construction-time dataset). A live-ingest daemon cannot use the
  /// built-in path — its dataset has grown past the bundle's fingerprint —
  /// so it swaps by rebuilding serving state from (base + bundle + log) and
  /// returns the post-swap (generation, swap_epoch). Throws on failure.
  std::function<std::pair<std::uint64_t, std::uint64_t>(const std::string&)>
      swap_fn;
  /// Called after every successful model swap with (bundle path, generation,
  /// swap_epoch). The replicated server broadcasts kModelSwap to subscribed
  /// followers from here. Invoked on a worker thread.
  std::function<void(const std::string&, std::uint64_t, std::uint64_t)>
      on_swap;
};

class MicroBatcher {
 public:
  /// One queued request: the decoded message plus its connection identity
  /// and admission timestamp (for the net.request_ms histogram).
  struct Item {
    std::uint64_t conn_id = 0;
    Message request;
    std::chrono::steady_clock::time_point enqueued{};
  };

  /// Called (from a worker thread) with the encoded response frame for
  /// `conn_id`. Must be thread-safe.
  using CompletionFn =
      std::function<void(std::uint64_t conn_id, std::string frame)>;

  /// The scorer and dataset must outlive the batcher. `dataset` is needed
  /// by kSwapRequest handling: a bundle can only be loaded against the
  /// dataset it was fitted on.
  MicroBatcher(serve::BatchScorer& scorer, const forum::Dataset& dataset,
               BatcherConfig config, CompletionFn on_complete);
  ~MicroBatcher();
  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Admits `item` unless the queue is full (returns false — the caller
  /// owes the client a kQueueFull error) or the batcher is stopping
  /// (false as well; the caller answers kShuttingDown).
  bool try_submit(Item item);

  /// Requests admitted but not yet drained into a batch. Exported as the
  /// net.queue_depth gauge and in health responses.
  std::size_t queue_depth() const;

  /// Stops admitting, drains everything already admitted (every queued
  /// request still gets its response — this is what "hot swap and shutdown
  /// drop zero in-flight requests" rests on), then joins the workers.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  /// One scoring worker. Idle workers park on their own condition variable
  /// in a stack, and a submission wakes the one that parked last: under
  /// light load one warm thread serves every request, and only overlapping
  /// requests spread across cores.
  struct Worker {
    std::condition_variable wake;
    std::thread thread;
  };

  void worker_loop(Worker& self);
  void process(std::vector<Item> batch);
  /// Observes the item's admission-to-completion latency, then hands its
  /// response frame to the CompletionFn.
  void complete(const Item& item, std::string frame);
  void score_group(forum::QuestionId question, std::vector<Item*>& group);
  std::string handle_route(const Item& item);
  std::string handle_swap(const Item& item);

  serve::BatchScorer& scorer_;
  const forum::Dataset& dataset_;
  BatcherConfig config_;
  CompletionFn on_complete_;

  mutable std::mutex mutex_;  // guards queue_, stopping_ and idle_
  std::vector<Item> queue_;
  bool stopping_ = false;
  std::vector<Worker*> idle_;  // parked workers, most recent last
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace forumcast::net
