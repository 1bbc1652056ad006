#include "serving/server.hpp"

#include <algorithm>
#include <utility>

#include "support/annotations.hpp"
#include "support/check.hpp"
#include "tensor/buffer_pool.hpp"

namespace flightnn::serving {

const char* to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::Ok: return "ok";
    case SubmitStatus::Overloaded: return "overloaded";
    case SubmitStatus::ShuttingDown: return "shutting_down";
    case SubmitStatus::InvalidRequest: return "invalid_request";
  }
  FLIGHTNN_UNREACHABLE("invalid SubmitStatus");
}

Server::Server(const runtime::BatchRunner& runner, ServerConfig config)
    : runner_(&runner), config_(config) {
  FLIGHTNN_CHECK(config_.max_batch >= 1,
                 "serving::Server: max_batch must be >= 1, got ",
                 config_.max_batch);
  FLIGHTNN_CHECK(config_.max_queue_delay_s >= 0.0,
                 "serving::Server: max_queue_delay_s must be >= 0, got ",
                 config_.max_queue_delay_s);
  FLIGHTNN_CHECK(config_.max_queue_images >= 1,
                 "serving::Server: max_queue_images must be >= 1, got ",
                 config_.max_queue_images);
  max_delay_ = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(config_.max_queue_delay_s));
  // Pay the memory-plan warmup (arena reserve + pool prewarm on every
  // inference thread) at construction so the first request's latency is
  // steady-state, not cold-start.
  runner_->warm(static_cast<std::size_t>(config_.max_batch));
  batcher_ = std::thread([this] { batcher_loop(); });
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  std::call_once(shutdown_once_, [this] {
    {
      const support::MutexLock lock(mutex_);
      stopping_ = true;
    }
    work_available_.notify_all();
    space_available_.notify_all();
    if (batcher_.joinable()) batcher_.join();
  });
}

FLIGHTNN_API_ENTRY Server::Submission Server::submit(
    runtime::InferenceRequest request) {
  FLIGHTNN_CHECK(!request.images.empty(),
                 "serving::Server::submit: request must carry >= 1 image");
  const auto images = static_cast<std::int64_t>(request.images.size());
  const inference::QuantizedNetwork& network = runner_->network();
  const bool valid = std::all_of(
      request.images.begin(), request.images.end(),
      [&](const tensor::Tensor& image) {
        return network.image_defect(image) == nullptr;
      });
  const support::MutexLock lock(mutex_);
  if (!valid) {
    ++stats_.invalid;
    return {SubmitStatus::InvalidRequest, {}};
  }
  for (;;) {
    if (stopping_) return {SubmitStatus::ShuttingDown, {}};
    // An oversized request (> max_queue_images by itself) is admitted into
    // an empty queue rather than being unsatisfiable.
    const bool fits =
        queued_images_ + images <=
            static_cast<std::int64_t>(config_.max_queue_images) ||
        queue_.empty();
    if (fits) break;
    if (!config_.block_on_full) {
      ++stats_.rejected;
      return {SubmitStatus::Overloaded, {}};
    }
    space_available_.wait(mutex_);
  }
  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = std::chrono::steady_clock::now();
  Submission submission{SubmitStatus::Ok, pending.promise.get_future()};
  queue_.push_back(std::move(pending));
  queued_images_ += images;
  ++stats_.accepted;
  work_available_.notify_one();
  return submission;
}

ServerStats Server::stats() const {
  const support::MutexLock lock(mutex_);
  return stats_;
}

void Server::batcher_loop() {
  // The batcher thread participates in its own parallel_for when executing
  // batches, so it needs the plan warmup too (the ctor warmed its own
  // thread and the pool workers, not this one).
  runner_->network().memory_plan()->warm_thread();
  std::vector<Pending> batch;
  support::MutexLock lock(mutex_);
  for (;;) {
    if (queue_.empty()) {
      if (stopping_) break;  // drained; graceful exit
      work_available_.wait(mutex_);
      continue;
    }
    // Flush on max-batch-OR-deadline. During shutdown everything still
    // queued flushes immediately (in max_batch-sized chunks).
    const auto deadline = queue_.front().enqueued + max_delay_;
    if (queued_images_ < config_.max_batch && !stopping_ &&
        std::chrono::steady_clock::now() < deadline) {
      // Woken early by new arrivals (possibly completing a full batch), by
      // shutdown, or spuriously; the loop re-evaluates either way.
      work_available_.wait_until(mutex_, deadline);
      continue;
    }
    // Take whole requests while the fused batch stays within max_batch;
    // always at least one so an oversized request still runs (alone).
    batch.clear();
    std::int64_t fused_images = 0;
    while (!queue_.empty()) {
      const auto next =
          static_cast<std::int64_t>(queue_.front().request.images.size());
      if (!batch.empty() && fused_images + next > config_.max_batch) break;
      fused_images += next;
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    queued_images_ -= fused_images;
    space_available_.notify_all();
    lock.unlock();
    execute_batch(batch);
    lock.lock();
    ++stats_.batches;
    stats_.completed += static_cast<std::int64_t>(batch.size());
    auto& histogram = stats_.batch_size_histogram;
    if (static_cast<std::int64_t>(histogram.size()) <= fused_images) {
      histogram.resize(static_cast<std::size_t>(fused_images) + 1, 0);
    }
    ++histogram[static_cast<std::size_t>(fused_images)];
    stats_.batcher_pooled_bytes = tensor::pool::stats().cached_bytes;
  }
}

FLIGHTNN_HOT void Server::execute_batch(std::vector<Pending>& batch) {
  const auto dispatched = std::chrono::steady_clock::now();
  fused_.images.clear();
  for (auto& pending : batch) {
    for (auto& image : pending.request.images) {
      // FLIGHTNN_LINT_SUPPRESS(hot-no-alloc): grow-once; fused_ is reused across flushes (DESIGN.md §9)
      fused_.images.push_back(std::move(image));
    }
  }
  const auto fused_images = static_cast<std::int64_t>(fused_.images.size());

  try {
    runner_->run(fused_, fused_result_);
  } catch (...) {
    const auto error = std::current_exception();
    for (auto& pending : batch) pending.promise.set_exception(error);
    return;
  }

  // Hand each request its slice of the fused results. queue_seconds is the
  // measured admission-to-dispatch wait; compute_seconds and batch_size
  // describe the fused forward pass the request rode in.
  const inference::NetworkOpCounts& census = runner_->network().census();
  std::size_t offset = 0;
  for (auto& pending : batch) {
    const std::size_t count = pending.request.images.size();
    runtime::InferenceResult result;
    result.id = pending.request.id;
    // Per-request result storage is handed to the client through the future,
    // so it cannot be recycled batcher-side; these are the only steady-state
    // allocations on the serving path and they are bounded per request
    // (asserted by tests/arena_allocation_test's serving case).
    // FLIGHTNN_LINT_SUPPRESS(hot-no-alloc): result ownership transfers to the client via the future
    result.logits.reserve(count);
    // FLIGHTNN_LINT_SUPPRESS(hot-no-alloc): result ownership transfers to the client via the future
    result.argmax.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      // FLIGHTNN_LINT_SUPPRESS(hot-no-alloc): within the reserve above; never reallocates
      result.logits.push_back(std::move(fused_result_.logits[offset + i]));
      // FLIGHTNN_LINT_SUPPRESS(hot-no-alloc): within the reserve above; never reallocates
      result.argmax.push_back(fused_result_.argmax[offset + i]);
    }
    result.counts = census.times(static_cast<std::int64_t>(count));
    result.timing.queue_seconds =
        std::chrono::duration<double>(dispatched - pending.enqueued).count();
    result.timing.compute_seconds = fused_result_.timing.compute_seconds;
    result.timing.batch_size = fused_images;
    offset += count;
    pending.promise.set_value(std::move(result));
  }
}

}  // namespace flightnn::serving
