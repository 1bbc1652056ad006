#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>
#include <memory>

#include "support/annotations.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "support/logging.hpp"

namespace flightnn::runtime {

namespace detail {

// Bookkeeping of one in-flight parallel_for. Lives on the calling thread's
// stack for exactly the duration of the call; workers only ever reach it
// through the pool's intrusive list, and the invariant that makes that safe
// is: any thread holding a ParallelOp pointer outside the pool mutex has
// `helpers_inside` incremented for it, and the caller does not return (and
// so does not pop its stack frame) until the op is unlinked and
// `helpers_inside` has drained to zero.
struct ParallelOp {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t chunk = 1;
  std::int64_t chunks = 0;
  void (*invoke)(void*, std::int64_t, std::int64_t) = nullptr;
  void* ctx = nullptr;

  std::atomic<std::int64_t> next{0};   // next chunk index to claim
  std::atomic<std::int64_t> done{0};   // chunks fully executed
  std::atomic<bool> failed{false};
  std::exception_ptr error;            // guarded by the pool mutex
  int helpers_inside = 0;              // guarded by the pool mutex
  ParallelOp* next_op = nullptr;       // intrusive list; guarded by the pool mutex
};

namespace {

// An op is worth entering only while it still has unclaimed chunks; helpers
// skip exhausted ops so they cannot spin on work that is merely draining.
ParallelOp* find_runnable(ParallelOp* head) {
  for (ParallelOp* op = head; op != nullptr; op = op->next_op) {
    if (op->next.load(std::memory_order_relaxed) < op->chunks) return op;
  }
  return nullptr;
}

}  // namespace

}  // namespace detail

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 0; w < threads_ - 1; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  support::log_debug() << "ThreadPool: " << threads_ << " thread(s) ("
                       << workers_.size() << " worker(s) + caller)";
}

ThreadPool::~ThreadPool() {
  {
    const support::MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_op_chunks(detail::ParallelOp& op) {
  for (;;) {
    const std::int64_t c = op.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= op.chunks) return;
    if (!op.failed.load(std::memory_order_relaxed)) {
      try {
        const std::int64_t lo = op.begin + c * op.chunk;
        const std::int64_t hi = std::min(op.end, lo + op.chunk);
        op.invoke(op.ctx, lo, hi);
      } catch (...) {
        const support::MutexLock lock(mutex_);
        if (!op.error) op.error = std::current_exception();
        op.failed.store(true, std::memory_order_relaxed);
      }
    }
    // Release pairs with the caller's acquire load while waiting: everything
    // the body wrote is visible once done == chunks is observed. (The
    // helpers_inside handshake under the pool mutex independently covers the
    // helper-executed chunks.)
    op.done.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop() {
  support::MutexLock lock(mutex_);
  for (;;) {
    // A worker leaves only when the pool stops with no op runnable. An op
    // found runnable may drain before the worker enters it (chunks are
    // claimed outside the mutex); run_op_chunks then returns at once.
    detail::ParallelOp* op = detail::find_runnable(ops_head_);
    if (op == nullptr) {
      if (stopping_) return;
      work_available_.wait(mutex_);
      continue;
    }
    ++op->helpers_inside;  // pins the op: its caller now waits for us
    lock.unlock();
    run_op_chunks(*op);
    lock.lock();
    if (--op->helpers_inside == 0) helpers_idle_.notify_all();
  }
}

// COLD_ALLOC: warm path only (the std::function may allocate); never
// called from steady-state inference.
FLIGHTNN_COLD_ALLOC void ThreadPool::for_each_thread(
    const std::function<void()>& fn) {
  FLIGHTNN_CHECK(fn != nullptr, "ThreadPool::for_each_thread: null fn");
  const support::MutexLock turn(rendezvous_mutex_);
  // A thread that has run its chunk waits here until all size() chunks
  // have, so it cannot claim a second: the chunks land on size() distinct
  // threads, and the caller, which claims chunks of its own op until none
  // is left, takes one of them.
  std::latch all_ran(threads_);
  parallel_for(0, threads_, 1, [&](std::int64_t, std::int64_t) {
    std::exception_ptr error;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    all_ran.arrive_and_wait();
    if (error) std::rethrow_exception(error);
  });
}

void ThreadPool::run_parallel(std::int64_t begin, std::int64_t end,
                              std::int64_t grain,
                              void (*invoke)(void*, std::int64_t, std::int64_t),
                              void* ctx) {
  FLIGHTNN_CHECK(grain > 0, "parallel_for: grain must be >= 1, got ", grain);
  if (end <= begin) return;
  const std::int64_t range = end - begin;
  // A handful of chunks per thread balances load without shrinking chunks
  // below `grain` (the caller's statement of worthwhile work size).
  const std::int64_t target_chunks = static_cast<std::int64_t>(threads_) * 4;
  const std::int64_t chunk =
      std::max(grain, (range + target_chunks - 1) / target_chunks);
  const std::int64_t chunks = (range + chunk - 1) / chunk;
  if (threads_ == 1 || chunks <= 1) {
    invoke(ctx, begin, end);
    return;
  }

  detail::ParallelOp op;
  op.begin = begin;
  op.end = end;
  op.chunk = chunk;
  op.chunks = chunks;
  op.invoke = invoke;
  op.ctx = ctx;

  {
    const support::MutexLock lock(mutex_);
    if (!stopping_) {
      // Push at the head: nested ops land in front of the op their caller is
      // already helping with, so free workers drain inner loops first.
      op.next_op = ops_head_;
      ops_head_ = &op;
    }
  }
  work_available_.notify_all();

  // The caller works too; run_op_chunks only returns once every chunk has
  // been claimed (by us or by helpers).
  run_op_chunks(op);

  {
    const support::MutexLock lock(mutex_);
    // Unlink so no new helper can discover the op...
    for (detail::ParallelOp** p = &ops_head_; *p != nullptr;
         p = &(*p)->next_op) {
      if (*p == &op) {
        *p = op.next_op;
        break;
      }
    }
    // ...then wait out the helpers already inside. When the last one leaves,
    // its claimed chunks are complete, so done == chunks follows and the
    // stack frame holding `op` (and the caller's body object) is safe to pop.
    while (op.helpers_inside != 0) helpers_idle_.wait(mutex_);
  }
  FLIGHTNN_DCHECK(op.done.load(std::memory_order_acquire) == op.chunks,
                  "parallel_for: ", op.done.load(), " of ", op.chunks,
                  " chunks done after helper drain");
  if (op.error) std::rethrow_exception(op.error);
}

// --- Global configuration ----------------------------------------------------

namespace {

constexpr int kMaxThreads = 1024;

support::Mutex g_config_mutex;
int g_threads FLIGHTNN_GUARDED_BY(g_config_mutex) = 0;  // 0 = not resolved
std::unique_ptr<ThreadPool> g_pool FLIGHTNN_GUARDED_BY(g_config_mutex);

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int resolve_default_threads() {
  if (const auto env = support::env_int("FLIGHTNN_NUM_THREADS")) {
    if (*env >= 1 && *env <= kMaxThreads) return static_cast<int>(*env);
    support::log_warn() << "FLIGHTNN_NUM_THREADS=" << *env << " outside [1, "
                        << kMaxThreads << "]; using hardware concurrency";
  }
  return hardware_threads();
}

}  // namespace

int num_threads() {
  const support::MutexLock lock(g_config_mutex);
  if (g_threads == 0) g_threads = resolve_default_threads();
  return g_threads;
}

void set_num_threads(int threads) {
  FLIGHTNN_CHECK(threads >= 0 && threads <= kMaxThreads,
                 "set_num_threads: ", threads, " outside [0, ", kMaxThreads,
                 "]");
  std::unique_ptr<ThreadPool> retired;
  {
    const support::MutexLock lock(g_config_mutex);
    g_threads = threads == 0 ? resolve_default_threads() : threads;
    if (g_pool && g_pool->size() != g_threads) retired = std::move(g_pool);
  }
  // Join the old pool's workers outside the lock so a straggler task that
  // itself consults the global configuration cannot deadlock the teardown.
  retired.reset();
}

// COLD_ALLOC: the pool is built once (and rebuilt only on a thread-count
// change); steady-state parallel_for calls hit the existing instance.
FLIGHTNN_COLD_ALLOC ThreadPool& global_pool() {
  const support::MutexLock lock(g_config_mutex);
  if (g_threads == 0) g_threads = resolve_default_threads();
  if (!g_pool || g_pool->size() != g_threads) {
    g_pool = std::make_unique<ThreadPool>(g_threads);
  }
  return *g_pool;
}

}  // namespace flightnn::runtime
