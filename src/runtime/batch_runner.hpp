#pragma once

// Batched inference driver: fans one compiled QuantizedNetwork out across
// batch elements on the shared thread pool. The network is immutable after
// compile(), so concurrent run() calls share weights with no synchronization;
// each image's forward pass is fully independent and the kernels inside each
// pass may themselves parallelize across output-filter blocks (nested
// parallel_for draws from the same pool).
//
// Public API (the single entry point, DESIGN.md §11): callers build an
// InferenceRequest and get an InferenceResult back, either owning
// (`run(request)`) or into preallocated storage (`run(request, result)`,
// the zero-allocation steady state of DESIGN.md §9). The serving layer
// (serving::Server) sits on this path; dataset accuracy is
// QuantizedNetwork::evaluate, one image at a time.
//
// Determinism: per-image results are bit-identical to serial execution at
// any thread count. The op counts are the network's load-time per-image
// census times the image count, so they do not depend on threads either.

#include <atomic>
#include <vector>

#include "inference/quantized_network.hpp"
#include "runtime/inference_request.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::runtime {

class BatchRunner {
 public:
  // The network must outlive the runner; it is shared, never copied.
  explicit BatchRunner(const inference::QuantizedNetwork& network)
      : network_(&network) {}

  // Owning entry point: run every request image ([C, H, W] or [1, C, H, W])
  // through the network. The result echoes request.id and carries logits,
  // argmax, op counts and timing (queue_seconds = 0 for direct calls).
  [[nodiscard]] InferenceResult run(const InferenceRequest& request) const;

  // Preallocated entry point: write into `result`, recycling its logits
  // tensors and argmax storage. Feeding the same `result` back across
  // batches is the zero-allocation steady state of DESIGN.md §9 (asserted
  // by tests/arena_allocation_test).
  void run(const InferenceRequest& request, InferenceResult& result) const;

  // Pre-size every thread's scratch arena and pools to the network's memory
  // plan so the FIRST batch already runs allocation-free (no grow-once
  // warmup): MemoryPlan::warm_thread on the calling thread and on every
  // pool worker, in one ThreadPool::for_each_thread. Must be called from
  // outside the pool (any non-worker thread); idempotent and cheap to
  // repeat. run() warms lazily on first use, so calling this is an
  // optimization, not a requirement. The warm state does not depend on the
  // batch size; `max_batch` is accepted for the callers that pass one.
  void warm(std::size_t max_batch = 64) const;

  [[nodiscard]] const inference::QuantizedNetwork& network() const {
    return *network_;
  }

 private:
  // The forward-pass core of run(): run `n` images through the network in
  // parallel, producing per-image logits. `logits` is resized to `n`.
  void run_images(const tensor::Tensor* images, std::size_t n,
                  std::vector<tensor::Tensor>& logits) const;

  const inference::QuantizedNetwork* network_;
  // First-run lazy-warm latch (see warm()), set before the warm starts so
  // one of several concurrent first run()s warms. Relaxed: a warm is an
  // optimization, and the warming thread synchronizes with its own
  // subsequent batch by program order.
  mutable std::atomic<bool> warmed_{false};
};

}  // namespace flightnn::runtime
