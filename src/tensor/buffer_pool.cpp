#include "tensor/buffer_pool.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace flightnn::tensor::pool {

namespace {

struct ThreadPool {
  // Free lists keyed by exact element count.
  std::unordered_map<std::size_t, std::vector<std::vector<float>>> free_lists;
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
  ++p.counters.acquires;
  auto it = p.free_lists.find(n);
  if (it != p.free_lists.end() && !it->second.empty()) {
    std::vector<float> buffer = std::move(it->second.back());
    it->second.pop_back();
    ++p.counters.hits;
    p.counters.cached_bytes -= n * sizeof(float);
    return buffer;
  }
  std::vector<float> buffer;
  buffer.resize(n);
  return buffer;
}

void release(std::vector<float>&& buffer) noexcept {
  if (buffer.empty()) return;
  if (!tls_pool_alive) {
    std::vector<float> drop = std::move(buffer);
    return;  // thread is tearing down; just free
  }
  const std::size_t bytes = buffer.size() * sizeof(float);
  try {
    ThreadPool& p = tls();
    ++p.counters.releases;
    if (p.counters.cached_bytes + bytes <= kMaxPooledBytes) {
      auto& list = p.free_lists[buffer.size()];
      if (list.size() < kMaxPooledPerSize) {
        list.push_back(std::move(buffer));
        p.counters.cached_bytes += bytes;
        return;
      }
    }
    std::vector<float> drop = std::move(buffer);  // past a cap: free it
  } catch (...) {
    // Map rehash or push_back failed under memory pressure: the buffer (if
    // not yet moved) is freed by its own destructor. release() stays noexcept.
  }
}

void prewarm(std::size_t n, std::size_t count) {
  if (n == 0 || count == 0) return;
  ThreadPool& p = tls();
  auto& list = p.free_lists[n];
  // A slot past the parked buffers, the ones already there included (a
  // caller's pool holds what its earlier work released): BatchRunner
  // releases the previous batch's logits, which another thread may have
  // acquired, before the forward pass acquires new ones, and that push must
  // not grow the list.
  list.reserve(std::min(std::max(list.size(), count), kMaxPooledPerSize) + 1);
  const std::size_t bytes = n * sizeof(float);
  while (list.size() < count && list.size() < kMaxPooledPerSize &&
         p.counters.cached_bytes + bytes <= kMaxPooledBytes) {
    std::vector<float> buffer;
    buffer.resize(n);
    list.push_back(std::move(buffer));
    p.counters.cached_bytes += bytes;
  }
}

Stats stats() { return tls().counters; }

void trim() {
  ThreadPool& p = tls();
  p.free_lists.clear();
  p.counters.cached_bytes = 0;
}

}  // namespace flightnn::tensor::pool
