#pragma once

// The unified inference API: one request/result pair that the BatchRunner,
// the serving-layer dynamic batcher (src/serving) and the deploy examples
// all speak. A request carries the caller's images plus an opaque id; the
// result echoes the id and returns logits, per-image argmax, the op census
// for exactly this request's images, and per-request timing (how long the
// request waited in a serving queue and how long its forward pass took).
//
// Direct BatchRunner::run calls fill timing.compute_seconds and leave
// timing.queue_seconds at zero; the serving batcher overwrites the queue
// fields with the measured admission-to-dispatch wait and the size of the
// dynamic batch the request actually rode in.

#include <cstdint>
#include <vector>

#include "inference/quantized_network.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::runtime {

struct InferenceRequest {
  // Caller-assigned correlation id, echoed verbatim in the result. The
  // runtime never interprets it.
  std::uint64_t id = 0;
  // One [C, H, W] (or [1, C, H, W]) tensor per image.
  std::vector<tensor::Tensor> images;

  // Split an NCHW batch tensor into per-image [C, H, W] tensors (copies).
  static InferenceRequest from_nchw(const tensor::Tensor& batch,
                                    std::uint64_t id = 0);
};

// Per-request observability attached to every InferenceResult.
struct RequestTiming {
  // Admission -> dispatch wait in a serving queue (0 for direct runs).
  double queue_seconds = 0.0;
  // Wall time of the forward pass that produced this request's logits. When
  // the request was dynamically batched with others, this is the whole
  // batch's compute time (the request was in flight for all of it).
  double compute_seconds = 0.0;
  // Number of images in the executed batch this request rode in. Equals the
  // request's own image count for direct runs; may be larger under the
  // serving batcher.
  std::int64_t batch_size = 0;
};

struct InferenceResult {
  std::uint64_t id = 0;
  std::vector<tensor::Tensor> logits;  // one per request image, in order
  std::vector<int> argmax;             // per-image argmax class index
  // Op census for this request's images only (not the whole dynamic batch).
  inference::NetworkOpCounts counts;
  RequestTiming timing;
};

}  // namespace flightnn::runtime
