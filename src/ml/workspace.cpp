#include "ml/workspace.hpp"

#include <algorithm>
#include <atomic>
#include <new>

#include "obs/obs.hpp"

namespace forumcast::ml {

namespace {

// Process-wide accounting for the obs gauges. Relaxed is fine: the gauges
// are monitoring signals, not synchronization.
std::atomic<std::size_t> g_total_bytes{0};
std::atomic<std::uint64_t> g_total_resets{0};

constexpr std::size_t kMinChunkBytes = 64 * 1024;

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

std::byte* aligned_new(std::size_t size) {
  return static_cast<std::byte*>(
      ::operator new(size, std::align_val_t{Workspace::kAlignment}));
}

void aligned_delete(std::byte* p) {
  ::operator delete(p, std::align_val_t{Workspace::kAlignment});
}

}  // namespace

Workspace::~Workspace() {
  g_total_bytes.fetch_sub(reserved_bytes(), std::memory_order_relaxed);
  for (Chunk& chunk : chunks_) aligned_delete(chunk.data);
}

Workspace& Workspace::tls() {
  thread_local Workspace ws;
  return ws;
}

std::size_t Workspace::reserved_bytes() const {
  std::size_t total = 0;
  for (const Chunk& chunk : chunks_) total += chunk.size;
  return total;
}

void Workspace::add_chunk(std::size_t min_size) {
  // Geometric growth keeps the chunk count logarithmic on the way up to the
  // high-water mark; after the first coalesce the arena is single-chunk.
  std::size_t size = std::max(kMinChunkBytes, reserved_bytes());
  size = std::max(size, round_up(min_size, kAlignment));
  Chunk chunk;
  chunk.data = aligned_new(size);
  chunk.size = size;
  chunks_.push_back(chunk);
  g_total_bytes.fetch_add(size, std::memory_order_relaxed);
  FORUMCAST_GAUGE_SET("ml.workspace_bytes",
                      g_total_bytes.load(std::memory_order_relaxed));
}

void* Workspace::allocate(std::size_t bytes) {
  FORUMCAST_CHECK(depth_ > 0);
  const std::size_t need = round_up(std::max<std::size_t>(bytes, 1), kAlignment);
  // Advance past exhausted chunks; pop() zeroes `used` on chunks beyond the
  // restored mark, so later chunks encountered here are ready for reuse.
  while (current_ < chunks_.size() &&
         chunks_[current_].used + need > chunks_[current_].size) {
    ++current_;
  }
  if (current_ == chunks_.size()) add_chunk(need);
  Chunk& chunk = chunks_[current_];
  std::byte* p = chunk.data + chunk.used;
  chunk.used += need;
  in_use_ += need;
  if (in_use_ > high_water_) high_water_ = in_use_;
  return p;
}

void Workspace::push(Frame::Mark& mark) {
  mark.chunk = current_;
  mark.used = chunks_.empty() ? 0 : chunks_[current_].used;
  mark.in_use = in_use_;
  ++depth_;
}

void Workspace::pop(const Frame::Mark& mark) {
  current_ = mark.chunk;
  if (!chunks_.empty()) {
    chunks_[current_].used = mark.used;
    for (std::size_t i = current_ + 1; i < chunks_.size(); ++i) {
      chunks_[i].used = 0;
    }
  }
  in_use_ = mark.in_use;
  --depth_;
  if (depth_ == 0) {
    if (chunks_.size() > 1) coalesce();
    g_total_resets.fetch_add(1, std::memory_order_relaxed);
    FORUMCAST_GAUGE_SET("ml.workspace_resets",
                        g_total_resets.load(std::memory_order_relaxed));
  }
}

void Workspace::coalesce() {
  // Only reachable with depth_ == 0: no live allocations, so the old chunks
  // can be dropped wholesale and replaced with one high-water-sized chunk.
  g_total_bytes.fetch_sub(reserved_bytes(), std::memory_order_relaxed);
  for (Chunk& chunk : chunks_) aligned_delete(chunk.data);
  chunks_.clear();
  current_ = 0;
  add_chunk(high_water_);
}

}  // namespace forumcast::ml
