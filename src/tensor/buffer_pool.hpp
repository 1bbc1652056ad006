#pragma once

// Per-thread recycling pool for tensor storage. Every `Tensor` acquires its
// float buffer from the current thread's pool and returns it on destruction,
// so steady-state workloads that churn through the same tensor sizes (one
// image's forward pass, repeated per batch) stop touching the allocator
// after warm-up. This is the storage half of the zero-allocation contract in
// DESIGN.md §9; the typed scratch half lives in runtime/scratch_arena.
//
// Design constraints:
//   - Pools are strictly thread-local: a buffer released on thread B goes
//     to B's pool even if it was acquired on thread A. The handoff of the
//     owning Tensor already synchronizes the memory, and no pool is ever
//     touched by two threads, so the pool needs no locks and is trivially
//     race-free under TSan.
//   - Buffers are keyed by exact element count. Tensors never resize after
//     construction, so the release-time size always equals the acquire-time
//     request and repeat workloads hit the free list exactly.
//   - A thread parks a released buffer only while that size's free list
//     holds fewer buffers than the most the thread itself has had out at
//     once (its acquires minus its releases of that size, floored at zero;
//     a prewarm count counts too), and frees it otherwise. Balanced loops
//     (a forward pass, BatchRunner's release-then-acquire of logits,
//     training) keep their free lists; one-way traffic parks nothing past
//     that demand: the request images a serving client makes and the
//     batcher frees, the logits the batcher makes and a client frees.
//   - Cached bytes per thread are capped as well (kMaxPooledBytes); a
//     release past the cap frees the buffer. It bounds workloads with
//     unbounded size diversity (training sweeps).
//   - Thread-exit safety: after the thread-local pool is destroyed, releases
//     from still-live tensors degrade to plain deallocation (a trivially
//     destructible flag guards the teardown window), so static-storage
//     tensors cannot touch a dead pool.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/annotations.hpp"

namespace flightnn::tensor::pool {

// Upper bound on bytes cached per thread before releases start freeing.
inline constexpr std::size_t kMaxPooledBytes = std::size_t{64} << 20;  // 64 MiB

// A buffer of exactly `n` elements with unspecified contents. Reuses a
// cached buffer of the same size when one is available -- the refill
// boundary where FLIGHTNN_HOT traversal stops (steady-state workloads hit
// the free list and never reach the allocator).
FLIGHTNN_COLD_ALLOC std::vector<float> acquire(std::size_t n);

// Return a buffer to the current thread's pool, or free it when the free
// list already holds the thread's demand for that size or the byte cap is
// reached. Never throws; an empty vector is a no-op.
FLIGHTNN_COLD_ALLOC void release(std::vector<float>&& buffer) noexcept;

// Park `count` buffers of exactly `n` elements in the calling thread's pool
// (topping up an existing free list, not adding to it blindly), so the first
// acquire of each hits the free list instead of the allocator, and reserve
// the free list one slot more, so a buffer released before the next acquire
// parks without growing it. `count` counts as the thread's demand for the
// size. The memory planner's warm path uses this with the program's exact
// activation working set (DESIGN.md §15). Respects the byte cap; buffers
// past it are not made.
FLIGHTNN_COLD_ALLOC void prewarm(std::size_t n, std::size_t count);

// --- Introspection / test hooks ----------------------------------------------

struct Stats {
  std::uint64_t acquires = 0;       // total acquire() calls on this thread
  std::uint64_t hits = 0;           // acquires served from the free list
  std::uint64_t releases = 0;       // total release() calls on this thread
  std::size_t cached_bytes = 0;     // bytes currently parked in the pool
};

// Counters for the calling thread.
[[nodiscard]] Stats stats();

// Free every cached buffer on the calling thread and forget its demand
// (tests; memory pressure).
void trim();

}  // namespace flightnn::tensor::pool
