#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "graph/centrality.hpp"
#include "graph/graph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::util {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, DisjointWritesMatchSerial) {
  const std::size_t n = 5000;
  std::vector<double> serial(n), parallel(n);
  auto body = [](std::size_t i) { return static_cast<double>(i) * 1.5 + 1.0; };
  for (std::size_t i = 0; i < n; ++i) serial[i] = body(i);
  parallel_for(n, [&](std::size_t i) { parallel[i] = body(i); }, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(
                   100,
                   [](std::size_t i) {
                     if (i == 57) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
}

TEST(ParallelFor, NullBodyRejected) {
  EXPECT_THROW(parallel_for(3, nullptr, 2), CheckError);
}

TEST(ParallelFor, DefaultThreadCountPositive) {
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ParallelFor, NestedCallsFromConcurrentCallersComplete) {
  // Four callers at once, each body calling parallel_for again: callers
  // work on their own ranges, so nesting cannot deadlock on the helpers.
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& row : hits) row = std::vector<std::atomic<int>>(kOuter * kInner);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      parallel_for(
          kOuter,
          [&](std::size_t i) {
            parallel_for(
                kInner,
                [&](std::size_t j) { hits[c][i * kInner + j].fetch_add(1); },
                4);
          },
          4);
    });
  }
  for (auto& caller : callers) caller.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t k = 0; k < kOuter * kInner; ++k) {
      ASSERT_EQ(hits[c][k].load(), 1) << "caller " << c << " index " << k;
    }
  }
}

TEST(ParallelFor, NestedExceptionsReachEveryConcurrentCaller) {
  std::atomic<int> caught{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      try {
        parallel_for(
            8,
            [](std::size_t i) {
              parallel_for(
                  32,
                  [i](std::size_t j) {
                    if (i == 5 && j == 17) throw std::runtime_error("inner");
                  },
                  4);
            },
            4);
      } catch (const std::runtime_error&) {
        caught.fetch_add(1);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(caught.load(), 4);
  // The pool is still healthy afterwards.
  std::atomic<int> sum{0};
  parallel_for(100, [&](std::size_t) { sum.fetch_add(1); }, 4);
  EXPECT_EQ(sum.load(), 100);
}

TEST(ParallelFor, ThousandCallsRunOnABoundedSetOfThreads) {
  // Kernel thread ids are not recycled between nearby thread creations, so
  // a pool that spawned per call would show thousands of distinct ids here.
  std::mutex mutex;
  std::set<pid_t> tids;
  for (int call = 0; call < 1000; ++call) {
    parallel_for(
        64,
        [&](std::size_t) {
          const pid_t tid = ::gettid();
          const std::lock_guard<std::mutex> lock(mutex);
          tids.insert(tid);
        },
        4);
  }
  EXPECT_LE(tids.size(), default_thread_count());
  EXPECT_TRUE(tids.count(::gettid()));  // the caller takes its share
}

// ---------- chunked variant ----------

TEST(ParallelForChunks, ChunksCoverRangeExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunks(
      n,
      [&](std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end, n);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      4);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForChunks, SingleThreadRunsInlineAsOneChunk) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for_chunks(
      7, [&](std::size_t begin, std::size_t end) { chunks.push_back({begin, end}); },
      1);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 7}));
}

TEST(ParallelForChunks, CountWithinGrainRunsInline) {
  // count <= grain must not spawn threads: the single inline chunk is the
  // whole range, so a non-thread-safe body is fine.
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for_chunks(
      50, [&](std::size_t begin, std::size_t end) { chunks.push_back({begin, end}); },
      8, /*grain=*/64);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 50}));
}

TEST(ParallelForChunks, ZeroCountIsNoop) {
  bool called = false;
  parallel_for_chunks(
      0, [&](std::size_t, std::size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

TEST(ParallelForChunks, PropagatesExceptions) {
  EXPECT_THROW(parallel_for_chunks(
                   1000,
                   [](std::size_t begin, std::size_t) {
                     if (begin >= 500) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
}

TEST(ParallelForChunks, DisjointWritesMatchSerial) {
  const std::size_t n = 5000;
  std::vector<double> serial(n), parallel(n);
  auto value = [](std::size_t i) { return static_cast<double>(i) * 0.75 - 2.0; };
  for (std::size_t i = 0; i < n; ++i) serial[i] = value(i);
  parallel_for_chunks(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) parallel[i] = value(i);
      },
      8);
  EXPECT_EQ(serial, parallel);
}

// ---------- parallel centralities equal serial ----------

graph::Graph random_graph(std::size_t nodes, std::size_t edges, std::uint64_t seed) {
  graph::Graph g(nodes);
  Rng rng(seed);
  while (g.edge_count() < edges) {
    g.add_edge(rng.uniform_index(nodes), rng.uniform_index(nodes));
  }
  return g;
}

TEST(ParallelCentrality, BetweennessMatchesSerial) {
  const auto g = random_graph(300, 600, 42);
  const auto serial = graph::betweenness_centrality(g, 1);
  for (std::size_t threads : {2u, 4u, 7u}) {
    // Fixed source slots reduced in a fixed order: bitwise identical.
    EXPECT_EQ(graph::betweenness_centrality(g, threads), serial)
        << "threads " << threads;
  }
}

TEST(ParallelCentrality, ClosenessMatchesSerialExactly) {
  const auto g = random_graph(250, 500, 7);
  const auto serial = graph::closeness_centrality(g, 1);
  const auto parallel = graph::closeness_centrality(g, 4);
  EXPECT_EQ(serial, parallel);  // disjoint writes: bitwise identical
}

TEST(ParallelCentrality, DeterministicAcrossRunsForFixedThreads) {
  const auto g = random_graph(200, 400, 99);
  const auto a = graph::betweenness_centrality(g, 3);
  const auto b = graph::betweenness_centrality(g, 3);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace forumcast::util
