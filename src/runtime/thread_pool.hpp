#pragma once

// Fixed-size thread pool and the `parallel_for` primitive the inference
// kernels are built on. Deliberately work-stealing-free: one work path,
// atomic chunk claiming inside each parallel_for, which is simple enough to
// reason about under ThreadSanitizer and fully sufficient for the regular,
// statically-partitionable loops in this codebase (batch elements,
// output-filter blocks, image planes).
//
// parallel_for is allocation-free: the per-invocation bookkeeping lives in a
// `ParallelOp` on the caller's stack, linked into an intrusive list the
// workers scan under the pool mutex, and the loop body is reached through a
// plain function pointer + context pointer rather than a std::function. This
// is what lets the batched runtime promise zero heap allocations in steady
// state (DESIGN.md §9).
//
// Design properties the tests rely on:
//   - The calling thread participates in its own parallel_for, so a pool of
//     size N uses N-1 workers and nested parallel_for calls issued from
//     inside a worker cannot deadlock: the nested caller claims chunks
//     itself and only waits on chunks actively running elsewhere.
//   - Results are bit-identical to serial execution for kernels that
//     partition their output: chunk boundaries never change what a single
//     output element computes, only which thread computes it.
//   - Exceptions thrown by a body are captured and rethrown on the calling
//     thread (first one wins; remaining chunks are skipped).

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "support/annotated_mutex.hpp"
#include "support/check.hpp"

namespace flightnn::runtime {

namespace detail {
struct ParallelOp;  // stack-allocated per parallel_for; defined in the .cpp
}  // namespace detail

class ThreadPool {
 public:
  // `threads` is the total parallelism including the calling thread; values
  // < 1 are clamped to 1 (a pool with no workers that runs everything
  // inline -- the serial path).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return threads_; }

  // Run `fn` exactly once on each of the size() threads that can take a
  // parallel_for chunk: the caller and every worker. It is one parallel_for
  // of size() chunks, each running `fn` and then waiting at a barrier until
  // all size() have arrived, so no thread can claim two. Warm paths use this
  // to initialize thread_local state (arena slots, buffer-pool prewarm) on
  // every thread before the first batch, upholding the zero-allocation
  // contract from the very first inference. Must be called from outside the
  // pool: a worker's call would wait at the barrier for one thread more than
  // the pool can send. Concurrent calls take turns: one barrier holds the
  // workers at a time. A throw from `fn` still reaches the barrier, and is
  // rethrown on the caller once every thread has passed it (first one
  // wins).
  void for_each_thread(const std::function<void()>& fn)
      FLIGHTNN_EXCLUDES(mutex_, rendezvous_mutex_);

  // Invoke `body(lo, hi)` over disjoint subranges covering [begin, end)
  // exactly once, with each subrange at least `grain` long (except possibly
  // the last). Blocks until every subrange has completed. Safe to call
  // concurrently from multiple threads and from inside another
  // parallel_for body. Performs no heap allocation.
  template <typename Body>
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const Body& body) {
    run_parallel(begin, end, grain,
                 [](void* ctx, std::int64_t lo, std::int64_t hi) {
                   (*static_cast<const Body*>(ctx))(lo, hi);
                 },
                 const_cast<void*>(static_cast<const void*>(&body)));
  }

 private:
  void worker_loop() FLIGHTNN_EXCLUDES(mutex_);
  // Type-erased core of parallel_for: `invoke(ctx, lo, hi)` runs the body.
  void run_parallel(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    void (*invoke)(void*, std::int64_t, std::int64_t),
                    void* ctx) FLIGHTNN_EXCLUDES(mutex_);
  // Claim-and-run loop shared by the caller and helper workers. Runs
  // unlocked; only the failure path briefly takes the mutex to file the
  // first exception.
  void run_op_chunks(detail::ParallelOp& op) FLIGHTNN_EXCLUDES(mutex_);

  int threads_;
  std::vector<std::thread> workers_;
  // Held for the whole of a for_each_thread call. Two interleaved ones
  // would each hold some threads at their barrier while waiting for the
  // rest, and neither would complete.
  support::Mutex rendezvous_mutex_;
  support::Mutex mutex_;
  support::CondVar work_available_;
  support::CondVar helpers_idle_;
  // Intrusive list head of in-flight parallel_for ops (stack-allocated in
  // their callers; see ParallelOp in the .cpp for the pinning protocol).
  detail::ParallelOp* ops_head_ FLIGHTNN_GUARDED_BY(mutex_) = nullptr;
  bool stopping_ FLIGHTNN_GUARDED_BY(mutex_) = false;
};

// --- Process-wide thread configuration ---------------------------------------
//
// The inference kernels all run on one shared pool so that composed
// parallelism (BatchRunner across images, shift engine across filters) draws
// from a single budget instead of multiplying thread counts.

// Configured parallelism. Resolved on first use from FLIGHTNN_NUM_THREADS
// (clamped to [1, 1024]), falling back to std::thread::hardware_concurrency.
[[nodiscard]] int num_threads();

// Override the thread count; 0 restores the environment/hardware default.
// Takes effect on the next global_pool()/parallel_for call. Not safe to call
// concurrently with in-flight parallel work.
void set_num_threads(int threads);

// The shared pool, (re)built lazily to match num_threads().
ThreadPool& global_pool();

// parallel_for on the shared pool. At num_threads() == 1 this degrades to a
// direct `body(begin, end)` call -- the serial path, no pool involved.
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const Body& body) {
  FLIGHTNN_CHECK(grain > 0, "parallel_for: grain must be >= 1, got ", grain);
  if (end <= begin) return;
  if (num_threads() == 1) {
    // Serial fast path: no pool, no chunking, one call over the full range.
    body(begin, end);
    return;
  }
  global_pool().parallel_for(begin, end, grain, body);
}

// Per-call cost hint for the serial-fallback overload below: the caller's
// estimate of how long one loop iteration takes, in nanoseconds. Estimates
// only need to be order-of-magnitude right -- the threshold separates
// "microseconds of total work" from "hundreds of microseconds".
struct CostHint {
  double ns_per_item = 0.0;
};

// Total estimated work below which dispatching to the pool is a net loss:
// waking helpers costs a mutex round-trip plus a notify_all (~tens of
// microseconds end to end), so ranges cheaper than this run inline. Measured
// on the BENCH_shift_engine smoke workload, where tiny per-layer ranges made
// threads=4 run at 0.94x of 1-thread before this gate existed.
inline constexpr double kMinParallelNs = 20'000.0;

// parallel_for with a serial-fallback gate: when the estimated total cost
// (range * hint) is too small to amortize pool dispatch, the body runs
// inline on the caller -- same arithmetic, no pool traffic. A zero hint
// means "unknown" and always dispatches, matching the overload above.
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  CostHint cost, const Body& body) {
  FLIGHTNN_CHECK(grain > 0, "parallel_for: grain must be >= 1, got ", grain);
  if (end <= begin) return;
  if (num_threads() == 1 ||
      (cost.ns_per_item > 0.0 &&
       static_cast<double>(end - begin) * cost.ns_per_item < kMinParallelNs)) {
    body(begin, end);
    return;
  }
  global_pool().parallel_for(begin, end, grain, body);
}

}  // namespace flightnn::runtime
