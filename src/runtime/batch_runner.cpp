#include "runtime/batch_runner.hpp"

#include <chrono>

#include "inference/memory_plan.hpp"
#include "runtime/thread_pool.hpp"
#include "support/annotations.hpp"

namespace flightnn::runtime {

namespace {

// Index of the (first) maximum logit; deterministic tie-break by index.
int argmax_of(const tensor::Tensor& logits) {
  const std::int64_t n = logits.numel();
  int best = 0;
  float best_value = n > 0 ? logits[0] : 0.0F;
  for (std::int64_t i = 1; i < n; ++i) {
    if (logits[i] > best_value) {
      best_value = logits[i];
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace

FLIGHTNN_COLD_ALLOC void BatchRunner::warm(std::size_t /*max_batch*/) const {
  // Every thread that can execute a forward pass gets its arena slots
  // reserved and a pool prewarmed to the network's activation working set:
  // the caller, which takes chunks of its own parallel_for, and each pool
  // worker.
  warmed_.store(true, std::memory_order_relaxed);
  const inference::MemoryPlan* plan = network_->memory_plan();
  global_pool().for_each_thread([plan] { plan->warm_thread(); });
}

FLIGHTNN_HOT void BatchRunner::run_images(
    const tensor::Tensor* images, std::size_t n,
    std::vector<tensor::Tensor>& logits) const {
  // The container recycles its storage across batches: once sized to the
  // steady-state batch shape it never reallocates (the operator-new hook in
  // tests/arena_allocation_test holds this to zero).
  // FLIGHTNN_LINT_SUPPRESS(hot-no-alloc): grow-once; recycles logits tensors in place
  logits.resize(n);
  parallel_for(0, static_cast<std::int64_t>(n), 1,
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) {
                   const auto idx = static_cast<std::size_t>(i);
                   // Release last batch's logits buffer into THIS worker's
                   // pool before the forward pass acquires its output.
                   // Image->worker assignment varies run to run; releasing
                   // first keeps each worker's acquire/release cycle locally
                   // balanced instead of needing a spare buffer per thread
                   // that happened to own the index last time.
                   logits[idx] = tensor::Tensor();
                   logits[idx] = network_->run(images[idx]);
                 }
               });
}

// Not an API entry of its own: the request's one precondition, the image
// contract, is checked once per image by the API entry QuantizedNetwork::run
// (image_defect), and a malformed image throws CheckFailure out of the
// parallel region.
FLIGHTNN_HOT void BatchRunner::run(const InferenceRequest& request,
                                   InferenceResult& result) const {
  // The first call pays the warmup (arena reserve + pool prewarm on every
  // thread); after that the latch short-circuits. Of several concurrent
  // first callers, only the one whose exchange sets it warms.
  if (!warmed_.load(std::memory_order_relaxed) &&
      !warmed_.exchange(true, std::memory_order_relaxed)) {
    warm(request.images.size());
  }
  result.id = request.id;
  const auto start = std::chrono::steady_clock::now();
  run_images(request.images.data(), request.images.size(), result.logits);
  const auto stop = std::chrono::steady_clock::now();

  // FLIGHTNN_LINT_SUPPRESS(hot-no-alloc): grow-once; callers reuse the result struct, so steady-state resizes never reallocate
  result.argmax.resize(request.images.size());
  for (std::size_t i = 0; i < result.logits.size(); ++i) {
    result.argmax[i] = argmax_of(result.logits[i]);
  }
  result.counts = network_->census().times(
      static_cast<std::int64_t>(request.images.size()));
  result.timing.queue_seconds = 0.0;
  result.timing.compute_seconds =
      std::chrono::duration<double>(stop - start).count();
  result.timing.batch_size =
      static_cast<std::int64_t>(request.images.size());
}

InferenceResult BatchRunner::run(const InferenceRequest& request) const {
  InferenceResult result;
  run(request, result);
  return result;
}

}  // namespace flightnn::runtime
