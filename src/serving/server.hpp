#pragma once

// Traffic-shaped serving front-end for the batched inference runtime: many
// concurrent clients each submit small InferenceRequests (1-4 images in
// production shapes); a dedicated batcher thread fuses them into dynamic
// batches that the BatchRunner executes on the shared thread pool. This is
// the deployment layer the FLightNN paper's "fast inference" pitch implies:
// kernel speedups only matter to users through the latency/throughput curve
// this layer (and bench/serving_load) makes measurable.
//
// Mechanics (DESIGN.md §11):
//   - submit() enqueues the request into a bounded MPMC queue and returns a
//     std::future<InferenceResult> the caller redeems whenever it likes.
//   - The batcher thread flushes on max-batch-size-OR-deadline: as soon as
//     `max_batch` images are pending, or when the oldest queued request has
//     waited `max_queue_delay_s` (the latency SLO knob), whichever first.
//     Requests are never split: a flush takes whole requests while the
//     fused batch stays within max_batch (always at least one request, so
//     a request larger than max_batch still runs, alone).
//   - Admission checks: before taking the lock, submit() checks every image
//     against the network (QuantizedNetwork::image_defect: input geometry,
//     finite pixels) and refuses a request with a bad one with
//     SubmitStatus::InvalidRequest, so it never joins -- and fails -- a
//     fused batch of good requests.
//   - Admission control: when the queue already holds `max_queue_images`
//     images, submit() either rejects with SubmitStatus::Overloaded
//     (default; the caller sheds load) or, with `block_on_full`, blocks
//     until the batcher drains space (caller-side backpressure).
//   - Shutdown is graceful: every accepted request's future is fulfilled
//     before the batcher exits; submissions racing shutdown get a typed
//     ShuttingDown status, never a broken promise.
//
// Determinism: the batcher only changes which forward passes share a
// parallel_for; per-image logits are bit-identical to a direct
// BatchRunner::run of the same image (asserted by tests/serving_test).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "support/annotated_mutex.hpp"

namespace flightnn::serving {

enum class SubmitStatus {
  Ok,              // accepted; the Submission carries a valid future
  Overloaded,      // bounded queue full and block_on_full is off
  ShuttingDown,    // shutdown() already initiated; request not accepted
  InvalidRequest,  // an image the network cannot run (geometry, non-finite)
};

[[nodiscard]] const char* to_string(SubmitStatus status);

struct ServerConfig {
  // Flush as soon as this many images are pending (the throughput knob).
  int max_batch = 8;
  // Flush when the oldest queued request has waited this long, even if the
  // batch is not full (the latency-SLO knob).
  double max_queue_delay_s = 0.002;
  // Admission bound: maximum images queued (not yet dispatched) before
  // submit() rejects or blocks.
  std::size_t max_queue_images = 64;
  // Overload behavior: false = reject with Overloaded (open-loop shedding),
  // true = block the submitting caller until space frees (backpressure).
  bool block_on_full = false;
};

struct ServerStats {
  std::int64_t accepted = 0;   // requests admitted
  std::int64_t rejected = 0;   // requests refused with Overloaded
  std::int64_t invalid = 0;    // requests refused with InvalidRequest
  std::int64_t completed = 0;  // requests whose future was fulfilled
  std::int64_t batches = 0;    // dynamic batches executed
  // batch_size_histogram[k] = number of executed batches fusing exactly k
  // images (index 0 unused). Sized to the largest batch seen.
  std::vector<std::int64_t> batch_size_histogram;
  // Bytes parked in the batcher thread's tensor pool after the last batch
  // (tensor::pool::stats().cached_bytes on that thread).
  std::size_t batcher_pooled_bytes = 0;
};

class Server {
 public:
  struct Submission {
    SubmitStatus status = SubmitStatus::Ok;
    // Valid only when status == Ok. Redeem with .get(); the result carries
    // per-request queue/compute timing and the fused batch size it rode in.
    std::future<runtime::InferenceResult> result;
  };

  // The runner (and the network behind it) must outlive the server.
  explicit Server(const runtime::BatchRunner& runner, ServerConfig config = {});
  ~Server();  // graceful: drains all accepted work, then joins the batcher
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Thread-safe; callable from any number of client threads concurrently.
  // The request must carry at least one image; a request holding an image
  // the network cannot run gets InvalidRequest.
  [[nodiscard]] Submission submit(runtime::InferenceRequest request)
      FLIGHTNN_EXCLUDES(mutex_);

  // Stop accepting new work, flush everything already accepted, join the
  // batcher thread. Idempotent and safe to call concurrently.
  void shutdown() FLIGHTNN_EXCLUDES(mutex_);

  [[nodiscard]] ServerStats stats() const FLIGHTNN_EXCLUDES(mutex_);
  [[nodiscard]] const ServerConfig& config() const { return config_; }

 private:
  struct Pending {
    runtime::InferenceRequest request;
    std::promise<runtime::InferenceResult> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void batcher_loop() FLIGHTNN_EXCLUDES(mutex_);
  // Fuse `batch` into one BatchRunner request, execute it, and fulfill
  // every promise with its slice of the results. Runs without the lock.
  void execute_batch(std::vector<Pending>& batch) FLIGHTNN_EXCLUDES(mutex_);

  const runtime::BatchRunner* runner_;
  ServerConfig config_;
  std::chrono::steady_clock::duration max_delay_;

  mutable support::Mutex mutex_;
  support::CondVar work_available_;   // batcher waits here
  support::CondVar space_available_;  // blocking submitters wait here
  std::deque<Pending> queue_ FLIGHTNN_GUARDED_BY(mutex_);
  std::int64_t queued_images_ FLIGHTNN_GUARDED_BY(mutex_) = 0;
  bool stopping_ FLIGHTNN_GUARDED_BY(mutex_) = false;
  ServerStats stats_ FLIGHTNN_GUARDED_BY(mutex_);

  // Batcher-thread scratch, reused across flushes (see DESIGN.md §9).
  runtime::InferenceRequest fused_;
  runtime::InferenceResult fused_result_;

  std::once_flag shutdown_once_;
  std::thread batcher_;  // last member: starts after everything above exists
};

}  // namespace flightnn::serving
