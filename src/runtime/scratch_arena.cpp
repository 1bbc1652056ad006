#include "runtime/scratch_arena.hpp"

#include <new>

namespace flightnn::runtime {

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
