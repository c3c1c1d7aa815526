// Per-thread bump arena for ml scratch memory.
//
// Modeled on the expression-graph workspace in marian-dev: each thread owns
// one arena, kernels carve Tensors out of it with a pointer bump, and a RAII
// Frame returns everything carved inside a scope in O(1). Steady state a hot
// path (Mlp forward, BatchScorer block, gradient step) performs zero heap
// allocations — the arena reaches its high-water mark on the first call and
// every later frame reuses the same bytes.
//
// Growth discipline: the arena is a list of chunks. When the current chunk is
// exhausted a new one is appended — existing chunks are never moved or freed
// while any Frame is open, so live pointers are never invalidated mid-scope.
// When the outermost Frame closes and the arena went multi-chunk, the chunks
// are coalesced into a single chunk sized to the observed high-water mark, so
// the fragmented layout is a one-time transient.
//
// Every allocation is 64-byte aligned (cache line / widest SIMD vector), and
// alignment is preserved between consecutive allocations by rounding sizes
// up, so kernels may use aligned loads on any tensor row 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/shape.hpp"
#include "ml/tensor.hpp"
#include "util/check.hpp"

namespace forumcast::ml {

class Workspace {
 public:
  static constexpr std::size_t kAlignment = 64;

  Workspace() = default;
  ~Workspace();

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's arena. Thread-local: concurrent callers never
  /// contend or share chunks, which is what makes arena-backed scratch safe
  /// under util::parallel_for.
  static Workspace& tls();

  /// Raw 64-byte-aligned storage for `bytes` bytes, valid until the
  /// enclosing Frame closes. Contents are unspecified (scratch semantics:
  /// callers overwrite before reading). Allocating outside any Frame is a
  /// contract violation — there would be no point at which the memory is
  /// reclaimed.
  void* allocate(std::size_t bytes);

  template <typename T>
  T* alloc(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T)));
  }

  /// Dense rows × cols tensor over freshly bumped arena storage.
  template <typename T>
  Tensor<T> tensor(std::size_t rows, std::size_t cols) {
    return Tensor<T>(alloc<T>(rows * cols), rows, cols);
  }

  template <typename T>
  Tensor<T> tensor(const Shape& shape) {
    return Tensor<T>(alloc<T>(shape.elements()), shape);
  }

  /// RAII allocation scope. Opening a Frame marks the arena position;
  /// closing it releases every allocation made since, in O(1). Frames nest
  /// (forward() inside train_batch() inside a scorer block); when the
  /// outermost frame closes the arena coalesces to its high-water chunk.
  class Frame {
   public:
    explicit Frame(Workspace& ws = Workspace::tls()) : ws_(ws) {
      ws_.push(mark_);
    }
    ~Frame() { ws_.pop(mark_); }

    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    Workspace& workspace() const { return ws_; }

   private:
    struct Mark {
      std::size_t chunk = 0;
      std::size_t used = 0;
      std::size_t in_use = 0;
    };

    Workspace& ws_;
    Mark mark_;

    friend class Workspace;
  };

  /// Bytes currently reserved by this arena's chunks.
  std::size_t reserved_bytes() const;
  /// Largest total of simultaneously live bytes this arena has seen.
  std::size_t high_water_bytes() const { return high_water_; }
  std::size_t chunk_count() const { return chunks_.size(); }
  std::size_t frame_depth() const { return depth_; }

 private:
  struct Chunk {
    std::byte* data = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void push(Frame::Mark& mark);
  void pop(const Frame::Mark& mark);
  void add_chunk(std::size_t min_size);
  void coalesce();

  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;    // index of the chunk being bumped
  std::size_t in_use_ = 0;     // live bytes across all chunks
  std::size_t high_water_ = 0;
  std::size_t depth_ = 0;      // open Frame count
};

}  // namespace forumcast::ml
