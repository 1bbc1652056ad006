#pragma once

// Fully-connected layer over [N, features] inputs, with the same optional
// WeightTransform hook as Conv2d (axis 0 of the weight = output unit, which
// plays the role of a "filter" for per-filter quantization).

#include "nn/layer.hpp"
#include "support/rng.hpp"
#include "tensor/ops.hpp"

namespace flightnn::nn {

class Linear final : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, bool with_bias,
         support::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;

  // The original naive kernels, kept as differential oracles for the GEMM
  // fast path.
  tensor::Tensor forward_reference(const tensor::Tensor& input, bool training);
  tensor::Tensor backward_reference(const tensor::Tensor& grad_output);

  std::vector<Parameter*> parameters() override;
  quant::WeightTransform* weight_transform() override { return transform_.get(); }
  Parameter* quantized_parameter() override { return &weight_; }
  [[nodiscard]] std::string name() const override { return "linear"; }

  void set_transform(quant::WeightTransformPtr transform) {
    transform_ = std::move(transform);
  }

  [[nodiscard]] Parameter& weight() { return weight_; }
  [[nodiscard]] Parameter& bias() { return bias_; }
  [[nodiscard]] std::int64_t in_features() const { return in_features_; }
  [[nodiscard]] std::int64_t out_features() const { return out_features_; }

  [[nodiscard]] tensor::Tensor quantized_weight();

 private:
  void prepare_forward(const tensor::Tensor& input, bool training);
  void check_backward(const tensor::Tensor& grad_output) const;
  void finish_backward(const tensor::Tensor& grad_output,
                       const tensor::Tensor& grad_wq);

  tensor::Tensor forward_gemm(const tensor::Tensor& input);
  tensor::Tensor forward_naive(const tensor::Tensor& input);
  tensor::Tensor backward_gemm(const tensor::Tensor& grad_output);
  tensor::Tensor backward_naive(const tensor::Tensor& grad_output);

  std::int64_t in_features_, out_features_;
  bool has_bias_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  quant::WeightTransformPtr transform_;

  tensor::Tensor input_cache_;
  tensor::Tensor effective_weight_;
};

}  // namespace flightnn::nn
