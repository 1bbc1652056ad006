#pragma once

// Pointwise layers: LeakyReLU (the paper's activation, Sec. 5.1) and the
// 8-bit activation fake-quantizer applied in every quantized model. The
// quantizer uses a straight-through gradient with saturation clipping.
//
// Both layers cache a one-byte-per-element decision mask for backward
// (sign for LeakyReLU, saturation for the quantizer) instead of a deep
// copy of the input: the backward pass only consumes that predicate, and
// the mask is a quarter of the memory traffic of a float copy.

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace flightnn::nn {

// The slopes LeakyReLU and the compiled network's leaky-ReLU op accept:
// [0, 1). There LeakyReLU's branch-free max(v, slope * v) equals the
// ternary v > 0 ? v : slope * v bit for bit, signed zeros included; a
// negative slope turns slope * +0 into -0 where max keeps +0, and a slope
// of 1 or more makes max pick slope * v for v > 0.
[[nodiscard]] inline bool leaky_slope_ok(float slope) {
  return slope >= 0.0F && slope < 1.0F;
}

class LeakyReLU final : public Layer {
 public:
  // Throws CheckFailure unless leaky_slope_ok(negative_slope).
  explicit LeakyReLU(float negative_slope = 0.01F);

  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "leaky_relu"; }

  [[nodiscard]] float negative_slope() const { return negative_slope_; }

 private:
  float negative_slope_;
  std::vector<std::uint8_t> positive_mask_;  // input > 0, per element
  tensor::Shape cached_shape_;
};

// Symmetric fixed-point fake-quantization of activations with a dynamic
// per-tensor power-of-two scale: the project's one fixed-point quantizer
// (quant/fixedpoint.hpp), which the compiled network's quant op runs too, so
// eval mode gives that op's bytes at every finite scale. Backward is
// straight-through inside the representable range and zero outside it
// (saturated values carry no gradient). Throws CheckFailure for an input
// holding a NaN or an infinity.
class ActivationQuant final : public Layer {
 public:
  explicit ActivationQuant(int bits = 8);

  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "act_quant"; }

  [[nodiscard]] int bits() const { return bits_; }

 private:
  int bits_;
  std::vector<std::uint8_t> saturated_mask_;  // |input * 2^-e| > q_max
  tensor::Shape cached_shape_;
};

}  // namespace flightnn::nn
