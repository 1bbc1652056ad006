#include "tensor/buffer_pool.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace flightnn::tensor::pool {

namespace {

// One element count's free list and this thread's demand for that size.
struct SizeClass {
  std::vector<std::vector<float>> free;
  // This thread's acquires minus its releases of the size, floored at zero
  // (a release of a buffer another thread acquired may come first).
  std::size_t out = 0;
  // The most `out` has been, or a prewarm count if larger: the free list
  // never holds more (DESIGN.md §9, "Pool bounds").
  std::size_t demand = 0;
};

struct ThreadPool {
  std::unordered_map<std::size_t, SizeClass> sizes;
  Stats counters;
};

// Guards the teardown window at thread exit: trivially destructible, so it
// stays readable after `tls_pool` has been destroyed. Releases arriving then
// (from tensors with longer storage duration) just free their buffer.
thread_local bool tls_pool_alive = false;

ThreadPool& tls() {
  thread_local struct Holder {
    ThreadPool pool;
    Holder() { tls_pool_alive = true; }
    ~Holder() { tls_pool_alive = false; }
  } holder;
  return holder.pool;
}

}  // namespace

std::vector<float> acquire(std::size_t n) {
  if (n == 0) return {};
  ThreadPool& p = tls();
  SizeClass& size = p.sizes[n];
  std::vector<float> buffer;
  if (size.free.empty()) {
    buffer.resize(n);
  } else {
    buffer = std::move(size.free.back());
    size.free.pop_back();
    ++p.counters.hits;
    p.counters.cached_bytes -= n * sizeof(float);
  }
  ++p.counters.acquires;
  size.demand = std::max(size.demand, ++size.out);
  return buffer;
}

void release(std::vector<float>&& buffer) noexcept {
  std::vector<float> owned = std::move(buffer);  // freed unless parked
  // Before the pool's first use, and while the thread tears down, just free.
  if (owned.empty() || !tls_pool_alive) return;
  const std::size_t bytes = owned.size() * sizeof(float);
  ThreadPool& p = tls();
  ++p.counters.releases;
  const auto it = p.sizes.find(owned.size());
  if (it == p.sizes.end()) return;  // never acquired on this thread
  SizeClass& size = it->second;
  if (size.out > 0) --size.out;
  if (size.free.size() >= size.demand ||
      p.counters.cached_bytes + bytes > kMaxPooledBytes) {
    return;
  }
  try {
    size.free.push_back(std::move(owned));
    p.counters.cached_bytes += bytes;
  } catch (...) {
    // The list could not grow under memory pressure: `owned` frees itself,
    // so release() stays noexcept.
  }
}

void prewarm(std::size_t n, std::size_t count) {
  if (n == 0 || count == 0) return;
  ThreadPool& p = tls();
  SizeClass& size = p.sizes[n];
  size.demand = std::max(size.demand, count);
  // A slot past the parked buffers, the ones already there included (a
  // caller's pool holds what its earlier work released, up to its demand):
  // BatchRunner releases the previous batch's logits, which another thread
  // may have acquired, before the forward pass acquires new ones, and that
  // push must not grow the list.
  size.free.reserve(std::max(size.free.size(), count) + 1);
  const std::size_t bytes = n * sizeof(float);
  while (size.free.size() < count &&
         p.counters.cached_bytes + bytes <= kMaxPooledBytes) {
    std::vector<float> buffer;
    buffer.resize(n);
    size.free.push_back(std::move(buffer));
    p.counters.cached_bytes += bytes;
  }
}

Stats stats() { return tls().counters; }

void trim() {
  ThreadPool& p = tls();
  p.sizes.clear();
  p.counters.cached_bytes = 0;
}

}  // namespace flightnn::tensor::pool
