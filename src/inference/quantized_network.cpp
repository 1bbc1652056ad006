#include "inference/quantized_network.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <utility>

#include "nn/activations.hpp"
#include "nn/loss.hpp"
#include "support/annotations.hpp"
#include "support/check.hpp"

namespace flightnn::inference {

namespace {

// One past the last flat op of op `i`'s subtree: residual segment counts are
// nested-inclusive totals, so a block is skipped without recursing.
std::size_t subtree_end(const std::vector<ProgramOp>& ops, std::size_t i) {
  const ProgramOp& op = ops[i];
  if (op.kind != ProgramOpKind::kResidual) return i + 1;
  return i + 1 +
         static_cast<std::size_t>(op.main_ops + op.shortcut_ops + op.post_ops);
}

// --- Validation ---------------------------------------------------------------
//
// from_program's check of every op field, whoever built the program (the
// compiler, an artifact or hand-written code); the adopting engines check
// the plans (adopt_plan). Residual segments are length-delimited
// (op.main_ops etc. are total counts), so exact consumption is checked at
// every nesting level: a program whose counts lie -- truncated,
// overlapping, or out of range -- fails with a typed CheckFailure instead
// of misassembling a network.

// A geometry field an op reads: in [lo, kMaxOpDim].
void check_dim(std::int64_t value, std::int64_t lo, const char* what) {
  FLIGHTNN_CHECK(value >= lo && value <= kMaxOpDim, "from_program: ", what, " ",
                 value, " outside [", lo, ", 2^24]");
}

void check_bits(int bits, int max_bits, const char* what) {
  FLIGHTNN_CHECK(bits >= 2 && bits <= max_bits, "from_program: ", what, " ",
                 bits, " outside [2, ", max_bits, "]");
}

void validate_ops(  // NOLINT(misc-no-recursion)
    const std::vector<ProgramOp>& ops, std::size_t begin, std::size_t end,
    int depth) {
  std::size_t cursor = begin;
  while (cursor < end) {
    const ProgramOp& op = ops[cursor];
    ++cursor;
    switch (op.kind) {
      case ProgramOpKind::kQuantAct:
        check_bits(op.bits, 16, "quant op bits");
        break;
      case ProgramOpKind::kShiftConv:
      case ProgramOpKind::kShiftLinear:
        // Codes past 8 bits do not fit the dense kernels' u8 lanes.
        check_bits(op.act_bits, kMaxShiftActBits, "shift op act bits");
        check_dim(op.out_channels, 1, "shift op out channels");
        check_dim(op.in_channels, 1, "shift op in channels");
        check_dim(op.kernel, 1, "shift op kernel");
        check_dim(op.stride, 1, "shift op stride");
        check_dim(op.padding, 0, "shift op padding");
        FLIGHTNN_CHECK(op.kind == ProgramOpKind::kShiftConv ||
                           (op.kernel == 1 && op.stride == 1 &&
                            op.padding == 0),
                       "from_program: shift linear op is not a 1x1, "
                       "stride-1, padding-0 conv (kernel ",
                       op.kernel, ", stride ", op.stride, ", padding ",
                       op.padding, ")");
        FLIGHTNN_CHECK(op.term_count >= 0 && op.term_count <= kMaxTermCount,
                       "from_program: term count ", op.term_count,
                       " outside [0, 2^40]");
        break;
      case ProgramOpKind::kAffine:
        FLIGHTNN_CHECK(op.scale.size() == op.affine_bias.size(),
                       "from_program: affine scale/bias size mismatch (",
                       op.scale.size(), " vs ", op.affine_bias.size(), ")");
        break;
      case ProgramOpKind::kLeakyRelu:
        // nn::LeakyReLU's contract: where its branch-free kernel equals
        // the op's ternary v > 0 ? v : slope * v bit for bit.
        FLIGHTNN_CHECK(nn::leaky_slope_ok(op.slope),
                       "from_program: leaky-relu slope ", op.slope,
                       " outside [0, 1)");
        break;
      case ProgramOpKind::kGap:
      case ProgramOpKind::kFlatten:
        break;
      case ProgramOpKind::kMaxPool:
        check_dim(op.window, 1, "max pool window");
        check_dim(op.stride, 1, "max pool stride");
        break;
      case ProgramOpKind::kResidual: {
        FLIGHTNN_CHECK(depth < kMaxResidualDepth,
                       "from_program: residual blocks nest deeper than ",
                       kMaxResidualDepth);
        FLIGHTNN_CHECK(op.has_shortcut || op.shortcut_ops == 0,
                       "from_program: residual without shortcut claims ",
                       op.shortcut_ops, " shortcut ops");
        const std::pair<std::int64_t, const char*> segments[] = {
            {op.main_ops, "main"},
            {op.shortcut_ops, "shortcut"},
            {op.post_ops, "post"}};
        for (const auto& [count, what] : segments) {
          FLIGHTNN_CHECK(
              count >= 0 && static_cast<std::size_t>(count) <= end - cursor,
              "from_program: residual ", what, " segment claims ", count,
              " ops but only ", end - cursor, " remain");
          const std::size_t segment_end =
              cursor + static_cast<std::size_t>(count);
          validate_ops(ops, cursor, segment_end, depth + 1);
          cursor = segment_end;
        }
        break;
      }
      default:
        FLIGHTNN_CHECK(false, "from_program: unknown op kind ",
                       static_cast<std::uint32_t>(op.kind));
    }
  }
}

// --- Float glue -----------------------------------------------------------------
//
// The ops that do not run on the shift engine. One that keeps its input's
// shape rewrites it in place; one that changes it fills every element of a
// Tensor::uninitialized output. None checks its input's shape: run() takes
// only the program's input geometry, and from_program's walk checked every
// op's input shape along it.

// Per-channel x = scale[c] * x + bias[c] (folded batch norm), in place.
FLIGHTNN_HOT void affine_channels(const ProgramOp& op, tensor::Tensor& x) {
  const std::int64_t hw = x.shape()[1] * x.shape()[2];
  for (std::size_t c = 0; c < op.scale.size(); ++c) {
    float* plane = x.data() + static_cast<std::int64_t>(c) * hw;
    for (std::int64_t i = 0; i < hw; ++i) {
      plane[i] = op.scale[c] * plane[i] + op.affine_bias[c];
    }
  }
}

// GCC keeps this select as a branch, which mispredicts on about half of the
// activations. nn::LeakyReLU's branch-free max(v, slope * v) gives the same
// bits at every slope validate_ops accepts; switching to it waits for the
// perf ledger's sample buffers to be sized for the speed it brings
// (ROADMAP.md, leaky-ReLU item).
FLIGHTNN_HOT void leaky_relu_values(tensor::Tensor& x, float slope) {
  float* values = x.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float v = values[i];
    values[i] = v > 0.0F ? v : slope * v;
  }
}

FLIGHTNN_HOT tensor::Tensor max_pool_planes(const tensor::Tensor& input,
                                            std::int64_t window,
                                            std::int64_t stride) {
  const auto& s = input.shape();
  const std::int64_t channels = s[0], in_h = s[1], in_w = s[2];
  const std::int64_t out_h = (in_h - window) / stride + 1;
  const std::int64_t out_w = (in_w - window) / stride + 1;
  tensor::Tensor out =
      tensor::Tensor::uninitialized(tensor::Shape{channels, out_h, out_w});
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* plane = input.data() + c * in_h * in_w;
    float* out_plane = out.data() + c * out_h * out_w;
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        float best = plane[(oy * stride) * in_w + ox * stride];
        for (std::int64_t ky = 0; ky < window; ++ky) {
          for (std::int64_t kx = 0; kx < window; ++kx) {
            best = std::max(
                best, plane[(oy * stride + ky) * in_w + ox * stride + kx]);
          }
        }
        out_plane[oy * out_w + ox] = best;
      }
    }
  }
  return out;
}

FLIGHTNN_HOT tensor::Tensor global_avg_pool(const tensor::Tensor& input) {
  const auto& s = input.shape();
  const std::int64_t channels = s[0], hw = s[1] * s[2];
  tensor::Tensor out = tensor::Tensor::uninitialized(tensor::Shape{channels});
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* plane = input.data() + c * hw;
    double acc = 0.0;
    for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
    out[c] = static_cast<float>(acc / static_cast<double>(hw));
  }
  return out;
}

// `image` as [C, H, W]: a [1, C, H, W] image is reshaped in place.
tensor::Tensor as_chw(tensor::Tensor image) {
  if (image.shape().rank() == 4) {
    const tensor::Shape s = image.shape();
    image.reshape(tensor::Shape{s[1], s[2], s[3]});
  }
  return image;
}

NetworkOpCounts shift_counts(const OpCounts& ops) {
  return {ops.shifts, ops.adds, 0};
}

// describe() token of one op ("quant(8b)", "shift_conv[16f/25t]", ...).
std::string op_token(const ProgramOp& op) {
  switch (op.kind) {
    case ProgramOpKind::kQuantAct:
      return "quant(" + std::to_string(op.bits) + "b)";
    case ProgramOpKind::kShiftConv:
      return "shift_conv[" + std::to_string(op.out_channels) + "f/" +
             std::to_string(op.term_count) + "t]";
    case ProgramOpKind::kAffine:
      return "affine";
    case ProgramOpKind::kLeakyRelu:
      return "leaky_relu";
    case ProgramOpKind::kMaxPool:
      return "maxpool";
    case ProgramOpKind::kGap:
      return "gap";
    case ProgramOpKind::kFlatten:
      return "flatten";
    case ProgramOpKind::kShiftLinear:
      return "shift_linear[" + std::to_string(op.out_channels) + "]";
    case ProgramOpKind::kResidual:
      return "residual";
  }
  FLIGHTNN_UNREACHABLE("op kind ", static_cast<std::uint32_t>(op.kind),
                       " passed from_program's validation");
}

// --- Load-time walk -----------------------------------------------------------

using Engine = std::optional<ShiftConv2d>;

// from_program's one walk over the validated program: the shape flow run()
// takes for every image, op by op, and the only check of each op's input
// shape (run_op checks none). Along the way it records what run() costs and
// allocates: each op's counts, its memory row (scratch sizes read from the
// adopted engines' plans) and run()'s pool traffic, replayed. It acquires
// where run_op makes a tensor -- the image copy, each shape-changing op's
// output and each residual main chain's copy of its input -- and releases
// where run_op drops one: a shape-changing op's input once its output
// exists, and a residual's shortcut output once it is added to the main
// one. An op that keeps the shape rewrites its input and makes no traffic.
// Per element count, the most buffers out at once is the pool's own demand
// rule (tensor/buffer_pool.hpp), so it is what warm parks. Residual segment
// bounds were validated by validate_ops.
struct LoadWalk {
  const std::vector<ProgramOp>& ops;
  const std::vector<Engine>& engines;
  std::vector<NetworkOpCounts> op_census;
  std::vector<OpMemory> per_op;
  // Per element count: the pooled buffers run() has out, and the most it
  // has had out at once.
  std::map<std::size_t, std::size_t> live;
  std::map<std::size_t, std::size_t> peak;

  LoadWalk(const std::vector<ProgramOp>& program_ops,
           const std::vector<Engine>& program_engines)
      : ops(program_ops),
        engines(program_engines),
        op_census(program_ops.size()),
        per_op(program_ops.size()) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      per_op[i].op = static_cast<std::uint32_t>(i);
      per_op[i].kind = ops[i].kind;
    }
  }

  // A tensor of `shape` made at op `t`: one pool acquire.
  tensor::Shape acquire(std::size_t t, tensor::Shape shape) {
    std::int64_t elements = 1;
    for (std::size_t axis = 0; axis < shape.rank(); ++axis) {
      FLIGHTNN_CHECK(!__builtin_mul_overflow(elements, shape[axis], &elements) &&
                         elements <= kMaxActivationElements,
                     "from_program: op ", t, " makes a ", shape.to_string(),
                     " activation, past 2^31 - 1 elements");
    }
    const auto numel = static_cast<std::size_t>(elements);
    peak[numel] = std::max(peak[numel], ++live[numel]);
    return shape;
  }

  // A tensor of `shape` dropped: one pool release.
  void release(const tensor::Shape& shape) {
    --live[static_cast<std::size_t>(shape.numel())];
  }

  // Op `t`'s row: the quantized `in`, the scratch the engine fetches for
  // it and the tile it runs on.
  void record_shift_op(std::size_t t, const ShiftConv2d& conv,
                       const tensor::Shape& in) {
    OpMemory& mem = per_op[t];
    mem.tile = conv.tile(in[1], in[2]);
    const ConvScratchBytes scratch = conv.scratch_bytes(in[1], in[2]);
    mem.offsets_bytes = scratch.offsets;
    mem.input_bytes = scratch.input;
    mem.codes_bytes = scratch.codes;
    mem.scratch_bytes = scratch.offsets + scratch.input + scratch.codes;
  }

  // The chain of top-level ops [begin, end) on `x`: fills op_census for
  // every op in it, adds the chain's counts to `total` and returns the
  // chain's output.
  tensor::Shape walk_ops(  // NOLINT(misc-no-recursion)
      std::size_t begin, std::size_t end, tensor::Shape x,
      NetworkOpCounts& total) {
    for (std::size_t i = begin; i < end; i = subtree_end(ops, i)) {
      NetworkOpCounts counts{};
      x = walk_op(i, x, counts);
      op_census[i] = counts;
      total += counts;
    }
    return x;
  }

  // Top-level op `i` on `in` (a residual walks its whole block).
  tensor::Shape walk_op(  // NOLINT(misc-no-recursion)
      std::size_t i, const tensor::Shape& in, NetworkOpCounts& counts) {
    const ProgramOp& op = ops[i];
    tensor::Shape out;
    switch (op.kind) {
      case ProgramOpKind::kQuantAct:
      case ProgramOpKind::kLeakyRelu:
        return in;
      case ProgramOpKind::kShiftConv: {
        FLIGHTNN_CHECK(in.rank() == 3 && in[0] == op.in_channels,
                       "from_program: shift conv at op ", i, " expects [",
                       op.in_channels, ", H, W] input, gets ", in.to_string());
        const ShiftConv2d& conv = *engines[i];
        const tensor::ConvGeometry geom{in[0],     in[1],     in[2],
                                        op.kernel, op.stride, op.padding};
        FLIGHTNN_CHECK(geom.out_h() > 0 && geom.out_w() > 0,
                       "from_program: shift conv at op ", i,
                       " produces an empty output from ", in.to_string());
        // After the shape check: the census tabulates `kernel` values.
        counts = shift_counts(conv.census(in[1], in[2]));
        out = tensor::Shape{op.out_channels, geom.out_h(), geom.out_w()};
        record_shift_op(i, conv, in);
        break;
      }
      case ProgramOpKind::kAffine:
        FLIGHTNN_CHECK(
            in.rank() == 3 &&
                in[0] == static_cast<std::int64_t>(op.scale.size()),
            "from_program: affine at op ", i, " expects [", op.scale.size(),
            ", H, W] input, gets ", in.to_string());
        return in;
      case ProgramOpKind::kMaxPool:
        FLIGHTNN_CHECK(in.rank() == 3 && in[1] >= op.window &&
                           in[2] >= op.window,
                       "from_program: max pool window ", op.window, " at op ",
                       i, " does not fit ", in.to_string());
        out = tensor::Shape{in[0], (in[1] - op.window) / op.stride + 1,
                            (in[2] - op.window) / op.stride + 1};
        break;
      case ProgramOpKind::kGap:
        FLIGHTNN_CHECK(in.rank() == 3, "from_program: gap at op ", i,
                       " expects CHW input, gets ", in.to_string());
        out = tensor::Shape{in[0]};
        break;
      case ProgramOpKind::kFlatten:
        return tensor::Shape{in.numel()};
      case ProgramOpKind::kShiftLinear: {
        FLIGHTNN_CHECK(in.numel() == op.in_channels,
                       "from_program: shift linear at op ", i, " expects ",
                       op.in_channels, " features, gets ", in.to_string());
        // The 1x1 conv run_op runs on the [in_features, 1, 1] plane.
        const ShiftConv2d& conv = *engines[i];
        counts = shift_counts(conv.census(1, 1));
        record_shift_op(i, conv, tensor::Shape{in.numel(), 1, 1});
        out = tensor::Shape{op.out_channels};
        break;
      }
      case ProgramOpKind::kResidual: {
        // run_op's residual: the main chain runs on a copy of the block
        // input, then the shortcut chain on the input itself; `main_out +=
        // skip_out` drops the shortcut's output, and the post chain runs on
        // main_out's buffer.
        const std::size_t shortcut =
            i + 1 + static_cast<std::size_t>(op.main_ops);
        const std::size_t post =
            shortcut + static_cast<std::size_t>(op.shortcut_ops);
        const tensor::Shape main_out =
            walk_ops(i + 1, shortcut, acquire(i, in), counts);
        const tensor::Shape skip_out = walk_ops(shortcut, post, in, counts);
        FLIGHTNN_CHECK(main_out == skip_out, "from_program: residual at op ",
                       i, " adds a ", main_out.to_string(),
                       " main output to a ", skip_out.to_string(), " shortcut");
        release(skip_out);
        return walk_ops(post, subtree_end(ops, i), main_out, counts);
      }
    }
    tensor::Shape y = acquire(i, std::move(out));
    release(in);
    return y;
  }
};

}  // namespace

QuantizedNetwork QuantizedNetwork::compile(nn::Sequential& model,
                                           const tensor::Shape& input_shape) {
  return from_program(compile_program(model, input_shape));
}

QuantizedNetwork QuantizedNetwork::from_program(NetworkProgram program) {
  check_dim(program.input_c, 1, "input channels");
  check_dim(program.input_h, 1, "input height");
  check_dim(program.input_w, 1, "input width");
  validate_ops(program.ops, 0, program.ops.size(), 0);
  QuantizedNetwork network;
  network.engines_.resize(program.ops.size());
  for (std::size_t i = 0; i < program.ops.size(); ++i) {
    ProgramOp& op = program.ops[i];
    if (op.kind == ProgramOpKind::kShiftConv ||
        op.kind == ProgramOpKind::kShiftLinear) {
      const ShiftConvSpec spec{op.out_channels, op.in_channels, op.kernel,
                               op.stride,       op.padding,     op.term_count};
      network.engines_[i].emplace(std::move(op.plan), spec, op.pow2,
                                  std::move(op.bias));
    }
  }
  network.program_ = std::move(program);
  const NetworkProgram& p = network.program_;
  LoadWalk walk(p.ops, network.engines_);
  // run() starts on its copy of the image and hands the last op's output
  // to the caller.
  (void)walk.walk_ops(
      0, p.ops.size(),
      walk.acquire(0, tensor::Shape{p.input_c, p.input_h, p.input_w}),
      network.census_);
  network.census_.images = 1;
  network.op_census_ = std::move(walk.op_census);
  network.memory_plan_ = MemoryPlan(std::move(walk.per_op), std::move(walk.peak));
  return network;
}

const char* QuantizedNetwork::image_defect(const tensor::Tensor& image) const {
  const auto& s = image.shape();
  const std::size_t lead = s.rank() == 4 ? 1 : 0;
  if (!(s.rank() == 3 || (s.rank() == 4 && s[0] == 1)) ||
      s[lead] != program_.input_c || s[lead + 1] != program_.input_h ||
      s[lead + 2] != program_.input_w) {
    return "not the program's input geometry";
  }
  // Tensor::abs_max is NaN or Inf exactly when a pixel is.
  if (!std::isfinite(image.abs_max())) return "a non-finite pixel";
  return nullptr;
}

FLIGHTNN_HOT FLIGHTNN_API_ENTRY tensor::Tensor QuantizedNetwork::run(
    tensor::Tensor image, NetworkOpCounts* counts) const {
  const char* defect = image_defect(image);
  FLIGHTNN_CHECK(defect == nullptr, "QuantizedNetwork::run: ", defect,
                 ": expected a finite [", program_.input_c, ", ",
                 program_.input_h, ", ", program_.input_w,
                 "] image (or [1, C, H, W]), got ", image.shape().to_string());
  // The chain starts on the image run() owns, which the first op rewrites
  // or replaces.
  tensor::Tensor logits =
      run_ops(0, program_.ops.size(), as_chw(std::move(image)));
  if (counts != nullptr) *counts += census_;
  return logits;
}

FLIGHTNN_HOT tensor::Tensor QuantizedNetwork::run_ops(std::size_t begin,
                                                      std::size_t end,
                                                      tensor::Tensor x) const {
  for (std::size_t i = begin; i < end; i = subtree_end(program_.ops, i)) {
    x = run_op(i, std::move(x));
  }
  return x;
}

FLIGHTNN_HOT tensor::Tensor QuantizedNetwork::run_op(std::size_t i,
                                                     tensor::Tensor x) const {
  const ProgramOp& op = program_.ops[i];
  switch (op.kind) {
    case ProgramOpKind::kQuantAct:
      fake_quantize(x, op.bits);
      return x;
    case ProgramOpKind::kShiftConv:
      // Inputs arriving here are already on the activation-quantizer grid,
      // so this re-quantization is lossless (same abs-max-driven pow2
      // scale).
      return engines_[i]->run(x, op.act_bits, memory_plan_.per_op()[i].tile);
    case ProgramOpKind::kAffine:
      affine_channels(op, x);
      return x;
    case ProgramOpKind::kLeakyRelu:
      leaky_relu_values(x, op.slope);
      return x;
    case ProgramOpKind::kMaxPool:
      return max_pool_planes(x, op.window, op.stride);
    case ProgramOpKind::kGap:
      return global_avg_pool(x);
    case ProgramOpKind::kFlatten:
      x.reshape(tensor::Shape{x.numel()});
      return x;
    case ProgramOpKind::kShiftLinear: {
      // The 1x1 conv over the input viewed as an [in_features, 1, 1] plane;
      // the [out, 1, 1] result becomes [out] in place.
      x.reshape(tensor::Shape{x.numel(), 1, 1});
      tensor::Tensor out =
          engines_[i]->run(x, op.act_bits, memory_plan_.per_op()[i].tile);
      out.reshape(tensor::Shape{op.out_channels});
      return out;
    }
    case ProgramOpKind::kResidual: {
      // The main chain runs on a copy of the block input, then the shortcut
      // chain on the input itself (an empty shortcut is the identity); the
      // post chain runs on the sum.
      const std::size_t shortcut = i + 1 + static_cast<std::size_t>(op.main_ops);
      const std::size_t post =
          shortcut + static_cast<std::size_t>(op.shortcut_ops);
      tensor::Tensor sum = run_ops(i + 1, shortcut, x);
      sum += run_ops(shortcut, post, std::move(x));
      return run_ops(post, subtree_end(program_.ops, i), std::move(sum));
    }
  }
  FLIGHTNN_UNREACHABLE("op kind ", static_cast<std::uint32_t>(op.kind),
                       " passed from_program's validation");
}

std::vector<StepProfile> QuantizedNetwork::profile(const tensor::Tensor& image,
                                                   int repeats) const {
  FLIGHTNN_CHECK(repeats >= 1, "QuantizedNetwork::profile: repeats ", repeats,
                 " must be >= 1");
  const char* defect = image_defect(image);
  FLIGHTNN_CHECK(defect == nullptr, "QuantizedNetwork::profile: ", defect,
                 ": expected a finite [", program_.input_c, ", ",
                 program_.input_h, ", ", program_.input_w,
                 "] image (or [1, C, H, W]), got ", image.shape().to_string());
  // Each repeat is one forward pass as run() makes it, on its own untimed
  // copy of the image, and times each op where it runs in that pass.
  std::vector<std::chrono::steady_clock::duration> elapsed(step_count());
  for (int r = 0; r < repeats; ++r) {
    tensor::Tensor x = as_chw(image);
    std::size_t row = 0;
    for (std::size_t i = 0; i < program_.ops.size();
         i = subtree_end(program_.ops, i), ++row) {
      const auto t0 = std::chrono::steady_clock::now();
      x = run_op(i, std::move(x));
      elapsed[row] += std::chrono::steady_clock::now() - t0;
    }
  }

  std::vector<StepProfile> profiles;
  for (std::size_t i = 0; i < program_.ops.size();
       i = subtree_end(program_.ops, i)) {
    const ProgramOp& op = program_.ops[i];
    StepProfile p;
    p.name = op_token(op);
    if (engines_[i]) {
      p.terms = engines_[i]->term_count();
      p.kernel_tier = engines_[i]->kernel_tier();
      p.tile = conv_tile_name(memory_plan_.per_op()[i].tile);
    }
    for (std::size_t op_i = i; op_i < subtree_end(program_.ops, i); ++op_i) {
      p.planned_scratch_bytes += memory_plan_.per_op()[op_i].scratch_bytes;
    }
    p.seconds =
        std::chrono::duration<double>(elapsed[profiles.size()]).count() /
        repeats;
    p.shifts = op_census_[i].shifts;
    p.adds = op_census_[i].adds;
    profiles.push_back(std::move(p));
  }
  return profiles;
}

double QuantizedNetwork::evaluate(const data::Dataset& dataset, int top_k,
                                  NetworkOpCounts* counts) const {
  std::int64_t hits = 0;
  for (std::int64_t n = 0; n < dataset.size(); ++n) {
    // run() takes the dataset's copy of the image itself: no second one.
    tensor::Tensor logits = run(dataset.image(n), counts);
    logits.reshape(tensor::Shape{1, logits.numel()});
    hits += nn::top_k_accuracy(logits,
                               {dataset.labels[static_cast<std::size_t>(n)]},
                               top_k) > 0.5
                ? 1
                : 0;
  }
  return dataset.size() > 0
             ? static_cast<double>(hits) / static_cast<double>(dataset.size())
             : 0.0;
}

std::size_t QuantizedNetwork::step_count() const {
  std::size_t steps = 0;
  for (std::size_t i = 0; i < program_.ops.size();
       i = subtree_end(program_.ops, i)) {
    ++steps;
  }
  return steps;
}

std::string QuantizedNetwork::describe() const {
  std::string out;
  for (std::size_t i = 0; i < program_.ops.size();
       i = subtree_end(program_.ops, i)) {
    if (!out.empty()) out += " -> ";
    out += op_token(program_.ops[i]);
  }
  return out;
}

}  // namespace flightnn::inference
