#include "runtime/inference_request.hpp"

#include <cstring>
#include <utility>

#include "support/check.hpp"

namespace flightnn::runtime {

InferenceRequest InferenceRequest::from_nchw(const tensor::Tensor& batch,
                                             std::uint64_t id) {
  const auto& s = batch.shape();
  FLIGHTNN_CHECK(s.rank() == 4, "InferenceRequest::from_nchw: NCHW batch "
                 "expected, got ", s.to_string());
  const tensor::Shape image_shape{s[1], s[2], s[3]};
  const std::int64_t image_numel = image_shape.numel();
  InferenceRequest request;
  request.id = id;
  request.images.reserve(static_cast<std::size_t>(s[0]));
  for (std::int64_t i = 0; i < s[0]; ++i) {
    // Every element is written by the copy.
    tensor::Tensor image = tensor::Tensor::uninitialized(image_shape);
    std::memcpy(image.data(), batch.data() + i * image_numel,
                static_cast<std::size_t>(image_numel) * sizeof(float));
    request.images.push_back(std::move(image));
  }
  return request;
}

}  // namespace flightnn::runtime
