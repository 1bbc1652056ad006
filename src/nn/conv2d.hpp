#pragma once

// 2-D convolution (NCHW activations, OIHW weights) via im2col + GEMM, with
// an optional WeightTransform so the same layer runs full-precision,
// fixed-point, LightNN-k or FLightNN weights. The transform sees the weight
// tensor filter-major (axis 0 = output channel = "filter" in the paper).

#include <vector>

#include "nn/layer.hpp"
#include "support/rng.hpp"
#include "tensor/ops.hpp"

namespace flightnn::nn {

class Conv2d final : public Layer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t padding,
         bool with_bias, support::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;

  // The original naive nested-loop kernels, kept as differential oracles for
  // the GEMM fast path. These run regardless of the global train-kernel path.
  tensor::Tensor forward_reference(const tensor::Tensor& input, bool training);
  tensor::Tensor backward_reference(const tensor::Tensor& grad_output);

  std::vector<Parameter*> parameters() override;
  quant::WeightTransform* weight_transform() override { return transform_.get(); }
  Parameter* quantized_parameter() override { return &weight_; }
  [[nodiscard]] std::string name() const override { return "conv2d"; }

  void set_transform(quant::WeightTransformPtr transform) {
    transform_ = std::move(transform);
  }

  [[nodiscard]] Parameter& weight() { return weight_; }
  [[nodiscard]] Parameter& bias() { return bias_; }
  [[nodiscard]] bool has_bias() const { return has_bias_; }

  [[nodiscard]] std::int64_t in_channels() const { return in_channels_; }
  [[nodiscard]] std::int64_t out_channels() const { return out_channels_; }
  [[nodiscard]] std::int64_t kernel() const { return kernel_; }
  [[nodiscard]] std::int64_t stride() const { return stride_; }
  [[nodiscard]] std::int64_t padding() const { return padding_; }

  // Weights as actually used in the last forward (quantized if a transform
  // is installed). Valid after any forward.
  [[nodiscard]] const tensor::Tensor& effective_weight() const {
    return effective_weight_;
  }

  // Geometry observed by the most recent forward (input/output spatial
  // sizes); used by the hardware cost models to census layers.
  [[nodiscard]] const tensor::ConvGeometry& last_geometry() const {
    return geometry_;
  }

  // Quantize the current weights through the installed transform without
  // running a forward pass (used by export / hardware-model paths).
  [[nodiscard]] tensor::Tensor quantized_weight();

 private:
  // Shared prologue of forward/forward_reference: shape checks, geometry,
  // weight quantization, input caching.
  void prepare_forward(const tensor::Tensor& input, bool training);
  void check_backward(const tensor::Tensor& grad_output) const;
  // Route dL/d(wq) through the transform (or STE) and accumulate bias grads.
  void finish_backward(const tensor::Tensor& grad_output,
                       const tensor::Tensor& grad_wq);

  tensor::Tensor forward_gemm(const tensor::Tensor& input);
  tensor::Tensor forward_naive(const tensor::Tensor& input);
  tensor::Tensor backward_gemm(const tensor::Tensor& grad_output);
  tensor::Tensor backward_naive(const tensor::Tensor& grad_output);

  std::int64_t in_channels_, out_channels_, kernel_, stride_, padding_;
  bool has_bias_;
  Parameter weight_;  // [out, in, k, k]
  Parameter bias_;    // [out]
  quant::WeightTransformPtr transform_;

  // Cached forward state for backward.
  tensor::Tensor input_cache_;
  tensor::Tensor effective_weight_;
  tensor::ConvGeometry geometry_;
};

}  // namespace flightnn::nn
