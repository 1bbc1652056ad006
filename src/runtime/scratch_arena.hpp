#pragma once

// Per-thread scratch arena for the inference hot path: a fixed set of named
// grow-once slots, each one 64-byte-aligned byte buffer. A fetch larger than
// the slot's high-water mark regrows it; every other fetch reuses the same
// storage, so once each slot has seen its largest request the steady state
// performs zero heap allocations (the zero-allocation contract of
// DESIGN.md §9, asserted by tests/arena_allocation_test). A compiled
// network's load-time walk knows the largest request each slot will see, and
// MemoryPlan::warm_thread reserves the slots to it (DESIGN.md §15), so after
// BatchRunner::warm not even the first batch grows one.
//
// Lifetime rules:
//   - Arenas are strictly thread-local; a buffer obtained from `current()`
//     must not escape the calling thread or outlive the current kernel
//     invocation (any later fetch from the same slot may regrow it and so
//     invalidate it).
//   - Slots are owned by call sites, not by layers: two kernels may share a
//     slot only if they can never be live simultaneously on one thread.
//     Nested use of the same slot (conv calling back into something that
//     uses kConvInput) is a bug; slots used by nestable helpers get their
//     own ids.
//   - Buffers keep their high-water capacity until the thread exits. Call
//     `trim()` to return the memory (tests; long-lived threads switching
//     workloads).

#include <cstddef>
#include <memory>

#include "support/annotations.hpp"

namespace flightnn::runtime {

// Slot ids for per-thread scratch, one per independent scratch use (see the
// lifetime rules above).
enum class Scratch : std::size_t {
  kConvOffsets = 0,  // ShiftConv2d: int32 per-tap code-plane offsets
  kConvInput,        // ShiftConv2d: u8 code plane, padded, stride-phased
  kConvCodes,        // ShiftConv2d: int8 codes of a float input
  kGemmPackA,        // f32 packed A micro-panels (core/gemm)
  kSlotCount,
};

// Every slot starts on a cache-line boundary, so any scalar or SIMD kernel
// can assume its buffer is aligned and no two slots false-share a line.
inline constexpr std::size_t kArenaAlignment = 64;

class ScratchArena {
 public:
  // The calling thread's arena.
  static ScratchArena& current();

  // `n` elements of T from `slot`. Contents are unspecified: nothing is
  // initialized, so the caller writes every element before reading it.
  // Under AddressSanitizer the slot's capacity past these n elements is
  // poisoned until the next fetch, so reading past them fails at once.
  template <typename T>
  FLIGHTNN_COLD_ALLOC T* fetch(Scratch slot, std::size_t n) {
    return static_cast<T*>(reserve(slot, n * sizeof(T)));
  }

  // Grows `slot` to hold at least `bytes` and returns its storage. Capacity
  // only grows, so a request at or below the high-water mark does not
  // allocate -- the grow-once boundary where FLIGHTNN_HOT traversal stops.
  // The warm path calls it to pre-size a slot before the first batch.
  FLIGHTNN_COLD_ALLOC void* reserve(Scratch slot, std::size_t bytes);

  // Bytes currently held across all slots (observability; feeds the
  // BENCH_*.json memory fields).
  [[nodiscard]] std::size_t footprint_bytes() const;

  // Release every slot's storage.
  void trim();

 private:
  ScratchArena() = default;

  struct AlignedDelete {
    void operator()(std::byte* p) const;
  };
  struct Slot {
    std::unique_ptr<std::byte[], AlignedDelete> data;
    std::size_t bytes = 0;  // capacity of `data`
  };
  Slot slots_[static_cast<std::size_t>(Scratch::kSlotCount)];
};

}  // namespace flightnn::runtime
