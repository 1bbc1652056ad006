#include "runtime/scratch_arena.hpp"

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define FLIGHTNN_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FLIGHTNN_ARENA_ASAN 1
#endif
#endif
#ifdef FLIGHTNN_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace flightnn::runtime {

namespace {

// Under AddressSanitizer only the bytes the latest fetch asked for are
// addressable: a slot's capacity is its largest past request, so without
// this a kernel reading past its buffer into that tail would go unseen.
void expose_fetched(std::byte* data, std::size_t fetched,
                    std::size_t capacity) {
#ifdef FLIGHTNN_ARENA_ASAN
  if (data == nullptr) return;
  __asan_unpoison_memory_region(data, fetched);
  __asan_poison_memory_region(data + fetched, capacity - fetched);
#else
  (void)data;
  (void)fetched;
  (void)capacity;
#endif
}

}  // namespace

ScratchArena& ScratchArena::current() {
  thread_local ScratchArena arena;
  return arena;
}

void ScratchArena::AlignedDelete::operator()(std::byte* p) const {
  ::operator delete(p, std::align_val_t{kArenaAlignment});
}

void* ScratchArena::reserve(Scratch slot, std::size_t bytes) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (bytes > s.bytes) {
    // Release first: the old contents are not kept, so the peak is one
    // buffer, not two.
    s.data.reset();
    s.bytes = 0;
    s.data.reset(static_cast<std::byte*>(
        ::operator new(bytes, std::align_val_t{kArenaAlignment})));
    s.bytes = bytes;
  }
  expose_fetched(s.data.get(), bytes, s.bytes);
  return s.data.get();
}

std::size_t ScratchArena::footprint_bytes() const {
  std::size_t bytes = 0;
  for (const Slot& s : slots_) bytes += s.bytes;
  return bytes;
}

void ScratchArena::trim() {
  for (Slot& s : slots_) {
    s.data.reset();
    s.bytes = 0;
  }
}

}  // namespace flightnn::runtime
