#include "nn/activations.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "quant/fixedpoint.hpp"
#include "runtime/thread_pool.hpp"
#include "support/check.hpp"
#include "support/simd.hpp"

namespace flightnn::nn {

namespace {

// Rough per-element cost of the pointwise loops below, for the pool's
// serial-fallback gate.
constexpr double kPointwiseNs = 1.0;

// Branchless pointwise kernels. Activation signs are data-dependent and
// close to 50/50 after batch norm, so a compare-and-branch formulation
// mispredicts on nearly every element (~15 cycles each); these kernels
// compile to max/min/blend with no flow control in the loop body.

// max(v, slope*v) picks v when v > 0 and slope*v otherwise, for every
// slope leaky_slope_ok accepts.
FLIGHTNN_SIMD_CLONES
void leaky_forward_train(const float* in, float* out, std::uint8_t* mask,
                         std::int64_t n, float slope) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = in[i];
    out[i] = std::max(v, v * slope);
    mask[i] = static_cast<std::uint8_t>(v > 0.0F);
  }
}

FLIGHTNN_SIMD_CLONES
void leaky_forward_eval(const float* in, float* out, std::int64_t n,
                        float slope) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = in[i];
    out[i] = std::max(v, v * slope);
  }
}

FLIGHTNN_SIMD_CLONES
void leaky_backward(const float* gout, const std::uint8_t* mask, float* gin,
                    std::int64_t n, float slope) {
  // Two-entry table indexed by the 0/1 mask: a load instead of a
  // mispredicted branch, and exact (multiplying by 1.0F is the identity).
  const float factor[2] = {slope, 1.0F};
  for (std::int64_t i = 0; i < n; ++i) {
    gin[i] = gout[i] * factor[mask[i]];
  }
}

FLIGHTNN_SIMD_CLONES
void quant_backward(const float* gout, const std::uint8_t* mask, float* gin,
                    std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    // mask is 0 or 1: (mask - 1) is all-ones (pass through) or all-zeros
    // (saturated, gradient exactly +0.0F) -- a bitwise select.
    const std::uint32_t keep = static_cast<std::uint32_t>(mask[i]) - 1U;
    gin[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(gout[i]) & keep);
  }
}

}  // namespace

LeakyReLU::LeakyReLU(float negative_slope) : negative_slope_(negative_slope) {
  FLIGHTNN_CHECK(leaky_slope_ok(negative_slope_),
                 "LeakyReLU: negative_slope must lie in [0, 1), got ",
                 negative_slope_);
}

tensor::Tensor LeakyReLU::forward(const tensor::Tensor& input, bool training) {
  tensor::Tensor output = tensor::Tensor::uninitialized(input.shape());
  const float* in = input.data();
  float* out = output.data();
  const float slope = negative_slope_;
  if (training) {
    cached_shape_ = input.shape();
    positive_mask_.resize(static_cast<std::size_t>(input.numel()));
    std::uint8_t* mask = positive_mask_.data();
    runtime::parallel_for(
        0, input.numel(), 4096, runtime::CostHint{kPointwiseNs},
        [&](std::int64_t begin, std::int64_t end) {
          leaky_forward_train(in + begin, out + begin, mask + begin,
                              end - begin, slope);
        });
  } else {
    runtime::parallel_for(
        0, input.numel(), 4096, runtime::CostHint{kPointwiseNs},
        [&](std::int64_t begin, std::int64_t end) {
          leaky_forward_eval(in + begin, out + begin, end - begin, slope);
        });
  }
  return output;
}

tensor::Tensor LeakyReLU::backward(const tensor::Tensor& grad_output) {
  FLIGHTNN_CHECK(!positive_mask_.empty(),
                 "LeakyReLU::backward before forward(training=true)");
  FLIGHTNN_CHECK_SHAPE(grad_output.shape(), cached_shape_,
                       "LeakyReLU::backward");
  tensor::Tensor grad_input =
      tensor::Tensor::uninitialized(grad_output.shape());
  const float* gout = grad_output.data();
  const std::uint8_t* mask = positive_mask_.data();
  float* gin = grad_input.data();
  const float slope = negative_slope_;
  runtime::parallel_for(
      0, grad_output.numel(), 4096, runtime::CostHint{kPointwiseNs},
      [&](std::int64_t begin, std::int64_t end) {
        leaky_backward(gout + begin, mask + begin, gin + begin, end - begin,
                       slope);
      });
  return grad_input;
}

ActivationQuant::ActivationQuant(int bits) : bits_(bits) {
  FLIGHTNN_CHECK(bits >= 2 && bits <= 16, "ActivationQuant: bits ", bits,
                 " outside [2, 16]");
}

tensor::Tensor ActivationQuant::forward(const tensor::Tensor& input,
                                        bool training) {
  const std::int32_t q_max = quant::FixedPointConfig{bits_}.q_max();
  const int e = quant::scale_exponent(input.abs_max(), q_max);
  tensor::Tensor output = tensor::Tensor::uninitialized(input.shape());
  const float* in = input.data();
  float* out = output.data();
  std::uint8_t* mask = nullptr;
  if (training) {
    cached_shape_ = input.shape();
    saturated_mask_.resize(static_cast<std::size_t>(input.numel()));
    mask = saturated_mask_.data();
  }
  runtime::parallel_for(
      0, input.numel(), 4096, runtime::CostHint{kPointwiseNs},
      [&](std::int64_t begin, std::int64_t end) {
        quant::fake_quantize_values(in + begin, out + begin,
                                    mask == nullptr ? nullptr : mask + begin,
                                    end - begin, e, q_max);
      });
  return output;
}

tensor::Tensor ActivationQuant::backward(const tensor::Tensor& grad_output) {
  FLIGHTNN_CHECK(!saturated_mask_.empty(),
                 "ActivationQuant::backward before forward(training=true)");
  FLIGHTNN_CHECK_SHAPE(grad_output.shape(), cached_shape_,
                       "ActivationQuant::backward");
  tensor::Tensor grad_input =
      tensor::Tensor::uninitialized(grad_output.shape());
  const float* gout = grad_output.data();
  const std::uint8_t* mask = saturated_mask_.data();
  float* gin = grad_input.data();
  runtime::parallel_for(
      0, grad_output.numel(), 4096, runtime::CostHint{kPointwiseNs},
      [&](std::int64_t begin, std::int64_t end) {
        quant_backward(gout + begin, mask + begin, gin + begin, end - begin);
      });
  return grad_input;
}

}  // namespace flightnn::nn
