#pragma once

// Per-thread recycling pool for tensor storage. Every `Tensor` acquires its
// float buffer from the current thread's pool and returns it on destruction,
// so steady-state workloads that churn through the same tensor sizes (one
// image's forward pass, repeated per batch) stop touching the allocator
// after warm-up. This is the storage half of the zero-allocation contract in
// DESIGN.md §9; the typed scratch half lives in runtime/scratch_arena.
//
// Design constraints:
//   - Pools are strictly thread-local: a buffer released on thread B enters
//     B's pool even if it was acquired on thread A. The handoff of the
//     owning Tensor already synchronizes the memory, and no pool is ever
//     touched by two threads, so the pool needs no locks and is trivially
//     race-free under TSan.
//   - Buffers are keyed by exact element count. Tensors never resize after
//     construction, so the release-time size always equals the acquire-time
//     request and repeat workloads hit the free list exactly.
//   - Cached bytes per thread are capped (kMaxPooledBytes), and so is the
//     number of buffers per size (kMaxPooledPerSize); a release past either
//     cap frees the buffer instead. The byte cap bounds workloads with
//     unbounded size diversity (training sweeps). The count cap bounds
//     one-way traffic between threads: a serving client releases every
//     logits buffer the batcher acquired, and the batcher every request
//     image a client acquired, so without it those pools only grow (the
//     byte cap charges payload alone, and a tiny buffer costs several
//     times its payload in allocator and free-list overhead).
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
// Upper bound on buffers cached per thread for any one size. A forward pass
// holds a few live tensors per size, so steady-state reuse stays far below.
inline constexpr std::size_t kMaxPooledPerSize = 256;

// A buffer of exactly `n` elements with unspecified contents. Reuses a
// cached buffer of the same size when one is available -- the refill
// boundary where FLIGHTNN_HOT traversal stops (steady-state workloads hit
// the free list and never reach the allocator).
FLIGHTNN_COLD_ALLOC std::vector<float> acquire(std::size_t n);

// Return a buffer to the current thread's pool (or free it past either
// cap). Never throws; an empty vector is a no-op.
FLIGHTNN_COLD_ALLOC void release(std::vector<float>&& buffer) noexcept;

// Park `count` buffers of exactly `n` elements in the calling thread's pool
// (topping up an existing free list, not adding to it blindly), so the first
// acquire of each hits the free list instead of the allocator, and reserve
// the free list one slot more, so a buffer released before the next acquire
// parks without growing it. The memory planner's warm path uses this with
// the program's exact activation working set (DESIGN.md §15). Respects both
// caps; requests past them are dropped.
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

// Free every cached buffer on the calling thread (tests; memory pressure).
void trim();

}  // namespace flightnn::tensor::pool
