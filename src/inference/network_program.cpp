#include "inference/network_program.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/flightnn_transform.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "quant/lightnn.hpp"
#include "support/check.hpp"

namespace flightnn::inference {

namespace {

struct ProgramState {
  int current_act_bits;  // bits of the most recent activation quantizer
};

// Shift-coding parameters of a weight transform: k_max > 0 when the layer's
// weights are sums of at most k_max powers of two (LightNN-k / FLightNN).
struct ShiftCoding {
  int k_max = 0;
  quant::Pow2Config pow2;
};

ShiftCoding shift_coding(quant::WeightTransform* transform) {
  ShiftCoding coding;
  if (auto* lightnn = dynamic_cast<quant::LightNNTransform*>(transform)) {
    coding.k_max = lightnn->k();
    coding.pow2 = lightnn->config();
  } else if (auto* fl = dynamic_cast<core::FLightNNTransform*>(transform)) {
    coding.k_max = fl->config().k_max;
    coding.pow2 = fl->config().pow2;
  }
  return coding;
}

void program_into(nn::Sequential& seq, ProgramState& state,
                  std::vector<ProgramOp>& ops);

void program_layer(nn::Layer& layer, ProgramState& state,
                   std::vector<ProgramOp>& ops) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&layer)) {
    program_into(*seq, state, ops);
    return;
  }
  if (auto* aq = dynamic_cast<nn::ActivationQuant*>(&layer)) {
    state.current_act_bits = aq->bits();
    ProgramOp op;
    op.kind = ProgramOpKind::kQuantAct;
    op.bits = aq->bits();
    ops.push_back(std::move(op));
    return;
  }
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    tensor::Tensor wq = conv->quantized_weight();
    tensor::Tensor bias =
        conv->has_bias() ? conv->bias().value : tensor::Tensor();
    const ShiftCoding coding = shift_coding(conv->weight_transform());
    ProgramOp op;
    const auto& ws = wq.shape();
    op.out_channels = ws[0];
    op.in_channels = ws[1];
    op.kernel = ws[2];
    op.stride = conv->stride();
    op.padding = conv->padding();
    op.bias = std::move(bias);
    if (coding.k_max > 0) {
      op.kind = ProgramOpKind::kShiftConv;
      op.act_bits = state.current_act_bits;
      op.pow2 = coding.pow2;
      CompiledPlan compiled =
          ShiftPlan::compile_conv(wq, coding.k_max, coding.pow2);
      op.term_count = compiled.term_count;
      op.plan = std::move(compiled.plan);
    } else {
      op.kind = ProgramOpKind::kFloatConv;
      op.weights = std::move(wq);
    }
    ops.push_back(std::move(op));
    return;
  }
  if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&layer)) {
    const auto& mean = bn->running_mean();
    const auto& var = bn->running_var();
    const auto channels = static_cast<std::size_t>(mean.numel());
    ProgramOp op;
    op.kind = ProgramOpKind::kAffine;
    op.scale.resize(channels);
    op.affine_bias.resize(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      const auto i = static_cast<std::int64_t>(c);
      const float inv_std = 1.0F / std::sqrt(var[i] + 1e-5F);
      op.scale[c] = bn->gamma().value[i] * inv_std;
      op.affine_bias[c] = bn->beta().value[i] - mean[i] * op.scale[c];
    }
    ops.push_back(std::move(op));
    return;
  }
  if (auto* act = dynamic_cast<nn::LeakyReLU*>(&layer)) {
    ProgramOp op;
    op.kind = ProgramOpKind::kLeakyRelu;
    op.slope = act->negative_slope();
    ops.push_back(std::move(op));
    return;
  }
  if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&layer)) {
    ProgramOp op;
    op.kind = ProgramOpKind::kMaxPool;
    op.window = pool->window();
    op.stride = pool->stride();
    ops.push_back(std::move(op));
    return;
  }
  if (dynamic_cast<nn::GlobalAvgPool*>(&layer) != nullptr) {
    ProgramOp op;
    op.kind = ProgramOpKind::kGap;
    ops.push_back(std::move(op));
    return;
  }
  if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) {
    ProgramOp op;
    op.kind = ProgramOpKind::kFlatten;
    ops.push_back(std::move(op));
    return;
  }
  if (auto* linear = dynamic_cast<nn::Linear*>(&layer)) {
    tensor::Tensor wq = linear->quantized_weight();
    const ShiftCoding coding = shift_coding(linear->weight_transform());
    ProgramOp op;
    op.out_channels = wq.shape()[0];
    op.in_channels = wq.shape()[1];
    op.bias = linear->bias().value;
    if (coding.k_max > 0) {
      // A 1x1 conv over the [in_features, 1, 1] plane.
      op.kind = ProgramOpKind::kShiftLinear;
      op.kernel = 1;
      op.act_bits = state.current_act_bits;
      op.pow2 = coding.pow2;
      CompiledPlan compiled =
          ShiftPlan::compile_conv(wq, coding.k_max, coding.pow2);
      op.term_count = compiled.term_count;
      op.plan = std::move(compiled.plan);
    } else {
      op.kind = ProgramOpKind::kFloatLinear;
      op.weights = std::move(wq);
    }
    ops.push_back(std::move(op));
    return;
  }
  if (auto* block = dynamic_cast<nn::ResidualBlock*>(&layer)) {
    // Pre-order flattening: the residual op first, then the main, shortcut
    // and post segments. Counts are patched in after each segment is
    // emitted, so they are total (nested-inclusive) op counts. Each branch
    // sees the same incoming activation-quantization state.
    const std::size_t at = ops.size();
    ops.emplace_back();
    ops[at].kind = ProgramOpKind::kResidual;

    ProgramState main_state = state;
    const std::size_t main_begin = ops.size();
    program_into(block->main_path(), main_state, ops);
    const auto main_count = static_cast<std::int64_t>(ops.size() - main_begin);

    ProgramState skip_state = state;
    const bool has_shortcut = block->shortcut() != nullptr;
    const std::size_t skip_begin = ops.size();
    if (has_shortcut) {
      program_into(*block->shortcut(), skip_state, ops);
    }
    const auto skip_count = static_cast<std::int64_t>(ops.size() - skip_begin);

    ProgramState post_state = main_state;
    const std::size_t post_begin = ops.size();
    program_into(block->post(), post_state, ops);
    const auto post_count = static_cast<std::int64_t>(ops.size() - post_begin);

    ops[at].main_ops = main_count;
    ops[at].shortcut_ops = skip_count;
    ops[at].post_ops = post_count;
    ops[at].has_shortcut = has_shortcut;
    state = post_state;
    return;
  }
  throw std::invalid_argument("compile_program: unsupported layer '" +
                              layer.name() + "'");
}

void program_into(nn::Sequential& seq, ProgramState& state,
                  std::vector<ProgramOp>& ops) {
  for (const auto& layer : seq.layers()) {
    program_layer(*layer, state, ops);
  }
}

}  // namespace

NetworkProgram compile_program(nn::Sequential& model,
                               const tensor::Shape& input_shape) {
  FLIGHTNN_CHECK(input_shape.rank() == 4 && input_shape[0] == 1,
                 "compile_program: expected [1, C, H, W] input shape, got ",
                 input_shape.to_string());
  NetworkProgram program;
  program.input_c = input_shape[1];
  program.input_h = input_shape[2];
  program.input_w = input_shape[3];
  ProgramState state{kShiftInputBits};
  program_into(model, state, program.ops);
  return program;
}

}  // namespace flightnn::inference
