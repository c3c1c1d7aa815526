// Fork-join parallelism helper.
//
// parallel_for splits [0, count) into contiguous chunks and blocks until
// every chunk completes. The calling thread works through chunks itself;
// process-wide helper threads (default_thread_count() − 1 of them, started
// on first use and joined at exit) join in when idle, so no call constructs
// a thread. Because a caller never waits for work nobody
// has started, bodies may call parallel_for again and any number of threads
// may call it at once without deadlock. Results are deterministic as long
// as the body writes only to per-index (disjoint) outputs — which is how all
// call sites in this library use it (per-source centrality rows,
// per-question topic fold-in). Exceptions thrown by the body are captured
// and rethrown on the calling thread.
#pragma once

#include <cstddef>
#include <functional>

namespace forumcast::util {

/// Number of worker threads to use by default (hardware concurrency, ≥ 1).
std::size_t default_thread_count();

/// Runs body(i) for every i in [0, count) on at most `threads` threads (the
/// caller included, capped by the helpers the host has); 0 means default.
/// Falls back to a plain loop when count is small or one thread is requested.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

/// Chunked variant: runs body(begin, end) over contiguous, disjoint
/// subranges that together cover [0, count). Hot loops pay one indirect call
/// per chunk instead of one per index, and the body can keep per-chunk state
/// (scratch buffers, running accumulators) in registers. `grain` is the
/// minimum chunk width; counts of at most `grain` (or a single thread) run
/// inline on the calling thread as body(0, count), so tiny inner loops on a
/// training hot path never pay a helper hand-off.
void parallel_for_chunks(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t threads = 0, std::size_t grain = 1);

}  // namespace forumcast::util
