#pragma once

// Layer: the unit of forward/backward computation. The library uses explicit
// layer-level backprop (each layer caches what it needs during forward)
// rather than a general autograd tape -- Algorithm 1 in the paper only
// requires forward, backward and a quantize-before-forward hook, all of
// which this interface provides.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/parameter.hpp"
#include "quant/transform.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::nn {

// Which implementation the training-path kernels (Conv2d/Linear forward and
// backward) run on. kGemm is the blocked, thread-parallel fast path built on
// core/gemm; kReference is the original naive nested-loop code, kept alive
// as the differential oracle.
// Process-wide because the trainer and benches flip whole networks at once.
enum class TrainKernelPath { kGemm, kReference };

// Select / query the active training kernel path. Not safe to flip while a
// forward or backward pass is in flight.
void set_train_kernel_path(TrainKernelPath path);
[[nodiscard]] TrainKernelPath train_kernel_path();

class Layer {
 public:
  virtual ~Layer() = default;

  // Compute the layer output. `training` selects batch-norm statistics and
  // enables caching for backward.
  virtual tensor::Tensor forward(const tensor::Tensor& input, bool training) = 0;

  // Propagate dL/d(output) to dL/d(input), accumulating parameter gradients.
  // Must be called after a forward with training == true.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output) = 0;

  // Trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  // The weight transform installed on this layer, if it is a quantizable
  // layer that has one; nullptr otherwise.
  virtual quant::WeightTransform* weight_transform() { return nullptr; }

  // The parameter the weight transform applies to (the layer's main weight),
  // or nullptr for layers without quantizable weights.
  virtual Parameter* quantized_parameter() { return nullptr; }

  [[nodiscard]] virtual std::string name() const = 0;

  // Invoke `visitor` on each direct child layer (containers only).
  virtual void for_each_child(const std::function<void(Layer&)>& visitor) {
    (void)visitor;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

// Depth-first visit of `root` and every transitive child.
void visit_layers(Layer& root, const std::function<void(Layer&)>& visitor);

// Collect all weight transforms installed in a layer tree.
std::vector<quant::WeightTransform*> collect_transforms(Layer& root);

}  // namespace flightnn::nn
