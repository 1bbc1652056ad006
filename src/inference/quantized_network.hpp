#pragma once

// Whole-network integer inference: compile a trained model into an
// execution plan whose convolutions and fully-connected layers run on the
// shift-add integer engine (Fig. 3's LightNN-1 datapath), with batch norm
// folded into per-channel affine steps and activations re-quantized to
// fixed point between layers -- the structure of a pipelined (F)LightNN
// accelerator where shifts/adds are the datapath and the per-channel scale
// is a fixed-function stage.
//
// The plan mirrors the model's eval-mode forward pass: the same
// quantization points (the model's ActivationQuant layers), the same
// quantized weights, the same folded statistics. One deliberate addition:
// inputs to shift-coded layers are always re-quantized (hardware feeds the
// integer datapath integer codes), which adds a quantization point before
// the classifier that the float model lacks -- logits agree to that step's
// 8-bit granularity, convolution outputs bit-exactly.
//
// Every conv and linear layer runs on the integer engine, so only a model
// whose layers are shift-coded (LightNN-k / FLightNN transforms) compiles;
// compile_program refuses a full-precision or fixed-point one, which
// evaluates in float on the training stack.
//
// Execution form: the network *is* its validated NetworkProgram. run() is
// one switch over the flat pre-order op list, recursing only into a
// residual op's main/shortcut/post ranges, with one plan-adopting shift
// engine per shift op looked up by flat op index -- the fixed per-layer
// stage pipeline of the paper's accelerator mapping (Fig. 3, Sec. 5.2).
// There is one engine kind: a fully-connected shift layer runs as a 1x1
// ShiftConv2d on its input viewed as an [in_features, 1, 1] plane. Each op
// owns the activation it is handed (run_op): one that keeps the shape
// rewrites it in place, so run() allocates only its copy of the image, the
// output of each op that changes the shape and one copy per residual block.
// profile(), describe() and step_count() walk the same top-level ranges.
//
// Op census and memory plan: the shift/add counts of one forward pass, and
// the buffers it touches, depend only on the weights and the input
// geometry, and run() fixes the geometry, so from_program takes both once
// (census(), memory_plan()) and run() adds the census as a constant.

#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "inference/memory_plan.hpp"
#include "inference/network_program.hpp"
#include "inference/shift_engine.hpp"
#include "nn/sequential.hpp"

namespace flightnn::inference {

struct NetworkOpCounts {
  std::int64_t shifts = 0;
  std::int64_t adds = 0;
  std::int64_t images = 0;

  NetworkOpCounts& operator+=(const NetworkOpCounts& other) {
    shifts += other.shifts;
    adds += other.adds;
    images += other.images;
    return *this;
  }
  // This census repeated `n` times (every field scaled): a per-image census
  // times n is the census of n images.
  [[nodiscard]] NetworkOpCounts times(std::int64_t n) const {
    return {shifts * n, adds * n, images * n};
  }
};

// Per-op observability record produced by QuantizedNetwork::profile(): one
// per top-level op of the program (a residual block is one row).
struct StepProfile {
  std::string name;        // the op's describe() token
  double seconds = 0.0;    // mean wall time per run of this op
  std::int64_t shifts = 0;
  std::int64_t adds = 0;
  std::int64_t terms = 0;  // single-shift filter terms (0 for non-shift ops)
  // The dense kernel tier a shift op runs on (ShiftConv2d::kernel_tier:
  // "scalar" / "avx2" / "vnni"), "-" for ops that do not run on the shift
  // engine.
  std::string kernel_tier = "-";
  // The tile a shift op runs on, as the load walk picked it
  // (conv_tile_name: "column" / "filter"), "-" for the other ops.
  std::string tile = "-";
  // Arena scratch this op's kernels fetch, from the memory plan's per-op
  // rows (0 when the op uses none).
  std::size_t planned_scratch_bytes = 0;
};

class QuantizedNetwork {
 public:
  // Compile a trained model: from_program(compile_program(model,
  // input_shape)). Throws on layer types it does not understand, and
  // CheckFailure on a conv or linear layer without shift coding and where
  // from_program does, an input shape the layers cannot take included (its
  // load walk is the shape check; compile runs no forward pass).
  static QuantizedNetwork compile(nn::Sequential& model,
                                  const tensor::Shape& input_shape);

  // Build an executable network from a lowered program (the IR
  // compile_program emits and the deployment artifact stores). Validates the
  // program's structure -- residual segment counts at every nesting level,
  // bit widths, per-kind fields, input geometry -- and throws CheckFailure
  // on a malformed one; then keeps the op list and adopts each shift op's
  // plan into its engine. Both load paths build the same kind of network.
  // Last, it walks the ops once over the input geometry to take the op
  // census and the memory plan. That walk is the only check of each op's
  // input shape: it rejects a program whose ops cannot take the shape the
  // previous op produces, and run() then checks no shape past its image.
  static QuantizedNetwork from_program(NetworkProgram program);

  // Run one image [C, H, W] (or [1, C, H, W]) to logits. The image must pass
  // image_defect(). The forward pass runs on `image` itself: a caller that
  // hands over a temporary (evaluate() does) saves run() a copy. Adds
  // census() to `counts` once the pass has succeeded.
  [[nodiscard]] tensor::Tensor run(tensor::Tensor image,
                                   NetworkOpCounts* counts = nullptr) const;

  // Why `image` cannot run on this network, or nullptr when it can: it must
  // have the program's input geometry ([C, H, W] or [1, C, H, W]) and only
  // finite pixels. run() and profile() check it at entry;
  // serving::Server::submit checks it at admission.
  [[nodiscard]] const char* image_defect(const tensor::Tensor& image) const;

  // Op census of one image (images = 1), taken at from_program time: what
  // run() adds to its `counts` per image.
  [[nodiscard]] const NetworkOpCounts& census() const { return census_; }

  // Top-k classification accuracy over a dataset. Each image must pass
  // image_defect().
  [[nodiscard]] double evaluate(const data::Dataset& dataset, int top_k = 1,
                                NetworkOpCounts* counts = nullptr) const;

  // Per-op wall time and op census, one row per top-level op (a residual
  // block is one row): runs `repeats` forward passes as run() does, each on
  // an untimed copy of the image, timing each op inside the pass it runs
  // in; a row's time is its op's mean over the passes, and the counts are
  // the op's share of census(). Observability only -- outputs are
  // discarded.
  [[nodiscard]] std::vector<StepProfile> profile(const tensor::Tensor& image,
                                                 int repeats = 10) const;

  // Number of top-level ops (profile() rows, describe() tokens).
  [[nodiscard]] std::size_t step_count() const;

  // The memory plan taken at from_program time; never null. Valid for the
  // network's lifetime; BatchRunner's warm path applies it per worker.
  [[nodiscard]] const MemoryPlan* memory_plan() const { return &memory_plan_; }

  // Human-readable plan ("quant(8b) -> shift_conv[16f/25t] -> affine ...").
  [[nodiscard]] std::string describe() const;

 private:
  // Runs top-level op `i` (a residual runs its whole block) on `x`, which it
  // consumes: an op that keeps the shape rewrites `x` in place and returns
  // it; any other reads it and returns a Tensor::uninitialized output it
  // fills completely. A residual gives its main chain one copy of `x` and
  // its shortcut chain `x` itself. No op checks its input's shape:
  // from_program's walk checked each one along the only geometry run()
  // accepts.
  [[nodiscard]] tensor::Tensor run_op(std::size_t i, tensor::Tensor x) const;
  // Runs the chain of top-level ops in [begin, end) on `x`, handing each
  // op's result to the next.
  [[nodiscard]] tensor::Tensor run_ops(std::size_t begin, std::size_t end,
                                       tensor::Tensor x) const;
  NetworkProgram program_;  // validated flat op list + input geometry
  // Parallel to program_.ops: the engine of each shift op (a linear op's is
  // a 1x1 conv), empty for the rest. The engines own the plans; the ops keep
  // everything else.
  std::vector<std::optional<ShiftConv2d>> engines_;
  // Parallel to program_.ops: each op's per-image counts (a residual's
  // covers its whole block); census_ sums the top-level ops.
  std::vector<NetworkOpCounts> op_census_;
  NetworkOpCounts census_;
  MemoryPlan memory_plan_;
};

}  // namespace flightnn::inference
