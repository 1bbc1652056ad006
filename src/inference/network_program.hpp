#pragma once

// NetworkProgram: the flat intermediate representation between a trained
// model and the executable QuantizedNetwork. compile_program() walks the
// layer tree once (the same dynamic_cast walk QuantizedNetwork::compile
// always did) and lowers every layer into a self-contained ProgramOp --
// shift layers carry their compiled ShiftPlan (the int8 pack), batch norm
// arrives already folded into per-channel affines, residual blocks are
// flattened into pre-order segments with explicit child counts. A shift
// layer is lowered once, straight from its quantized weights
// (ShiftPlan::compile_conv).
//
// The IR exists so the deployment artifact (serialize/artifact.hpp) has a
// stable, pointer-free description to serialize: every field is a scalar,
// a tensor, or a plan section, so an op can be laid out into a flat blob
// and reconstituted without re-deriving anything from the float model.
// It is also the executable form: QuantizedNetwork::from_program() keeps the
// validated op list and runs it directly, adopting each shift op's plan into
// an engine. The in-memory compile path and the artifact load path hand it
// the same plans, so both produce one kind of network with identical logits.
// from_program checks every op field (the caps below) and the adopting
// engine every plan (adopt_plan), whoever built the program.

#include <cstdint>
#include <vector>

#include "inference/shift_plan.hpp"
#include "quant/pow2.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::nn {
class Sequential;
}  // namespace flightnn::nn

namespace flightnn::inference {

// Re-quantization width of a shift op's input when no activation quantizer
// precedes the layer.
inline constexpr int kShiftInputBits = 8;

// Serialization-stable op kinds (the artifact records these values; append
// only, never renumber).
enum class ProgramOpKind : std::uint32_t {
  kQuantAct = 1,
  kShiftConv = 2,
  kFloatConv = 3,
  kAffine = 4,
  kLeakyRelu = 5,
  kMaxPool = 6,
  kGap = 7,
  kFlatten = 8,
  kShiftLinear = 9,
  kFloatLinear = 10,
  kResidual = 11,
};

// One lowered layer. Only the fields its kind reads are meaningful; the
// rest stay at their defaults.
struct ProgramOp {
  ProgramOpKind kind = ProgramOpKind::kQuantAct;

  int bits = 0;      // kQuantAct: activation quantizer width
  int act_bits = kShiftInputBits;  // shift ops: input re-quantization width
  float slope = 0.0F;  // kLeakyRelu

  // Geometry. Conv: out_channels/in_channels/kernel/stride/padding.
  // Linear: out_channels = out features, in_channels = in features; a shift
  // linear op is a 1x1 conv and records kernel = 1. MaxPool: window/stride.
  std::int64_t out_channels = 0;
  std::int64_t in_channels = 0;
  std::int64_t kernel = 0;
  std::int64_t window = 0;
  std::int64_t stride = 1;
  std::int64_t padding = 0;

  // Shift ops: compiled plan + the pow2 grid it shifts on, plus the
  // decomposition's term census, which adoption checks against the plan.
  std::int64_t term_count = 0;
  quant::Pow2Config pow2;
  ShiftPlan plan;

  // kFloatConv/kFloatLinear: the (quantized) float weights. Shift ops carry
  // only their plan, never weights.
  tensor::Tensor weights;
  tensor::Tensor bias;  // conv/linear bias; may be empty

  // kAffine (folded batch norm): y = scale[c] * x + affine_bias[c].
  std::vector<float> scale;
  std::vector<float> affine_bias;

  // kResidual: the ops vector continues with three flattened segments --
  // main, shortcut, post, in that order. Counts are TOTAL ops per segment,
  // nested residuals included, so a reader can skip a segment without
  // recursing.
  std::int64_t main_ops = 0;
  std::int64_t shortcut_ops = 0;
  std::int64_t post_ops = 0;
  bool has_shortcut = false;
};

// Caps QuantizedNetwork::from_program enforces on every program, whatever
// built it. A valid network never gets near them; a hostile one (an
// artifact's 224-byte op record) cannot use them to demand unbounded work.
// Every geometry field an op reads (channels, kernel, stride, padding,
// window, float weight dims, the input geometry) lies in [0 or 1, 2^24].
inline constexpr std::int64_t kMaxOpDim = std::int64_t{1} << 24;
// A shift op's term census (metadata) lies in [0, 2^40].
inline constexpr std::int64_t kMaxTermCount = std::int64_t{1} << 40;
// Residual blocks nest at most this deep, which bounds the recursion of
// the validation, the load walk and run().
inline constexpr int kMaxResidualDepth = 64;
// Every activation run() creates holds at most this many elements (a shift
// conv's int32 offset bound), which from_program's load walk checks as it
// follows the shapes: a padding within the caps cannot grow activations,
// the memory plan or the census past what int64 and a host can hold.
inline constexpr std::int64_t kMaxActivationElements = 0x7fffffff;

// A compiled network: pre-order flat op list plus the input geometry the
// program was compiled for.
struct NetworkProgram {
  std::vector<ProgramOp> ops;
  std::int64_t input_c = 0;
  std::int64_t input_h = 0;
  std::int64_t input_w = 0;
};

// Lower a trained model for [1, C, H, W] inputs. Walks the layer tree in
// execution order and reads each layer's parameters as they stand (a
// conv's quantized weights, stride, padding and bias; a batch norm's
// running statistics, folded): it runs no forward pass, so the calling
// thread's tensor pool keeps only the quantized weights it asked each
// transform for. Throws on layer types it does not understand and, through
// ShiftPlan::compile_conv, on a shift layer whose weights its pow2 coding
// cannot hold. It does not check that the layers can take `input_shape`:
// from_program's load walk does, for every adopter.
NetworkProgram compile_program(nn::Sequential& model,
                               const tensor::Shape& input_shape);

}  // namespace flightnn::inference
