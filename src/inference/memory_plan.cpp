#include "inference/memory_plan.hpp"

#include <algorithm>
#include <atomic>
#include <map>

#include "inference/quantized_network.hpp"
#include "inference/shift_engine.hpp"
#include "runtime/scratch_arena.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "support/logging.hpp"
#include "tensor/buffer_pool.hpp"
#include "tensor/ops.hpp"

namespace flightnn::inference {

namespace {

using tensor::Shape;

std::atomic<int> g_planning_override{-1};

}  // namespace

bool memory_planning_enabled() {
  const int forced = g_planning_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  return support::env_int("FLIGHTNN_FORCE_DYNAMIC_ARENA").value_or(0) == 0;
}

void set_memory_planning_override(int mode) {
  g_planning_override.store(mode, std::memory_order_relaxed);
}

// Shape-and-liveness simulation of one program. Mirrors QuantizedNetwork's
// flat executor (run_ops / run_op) op for op: flat pre-order op indices are
// the time axis (main -> shortcut -> post segment order equals execution
// order), every op output is a fresh pooled tensor, and the entry of run()
// and of a residual's main and shortcut chains is a deep copy that the
// analysis models as its own short-lived activation. The post chain starts
// on the summed main output itself. from_program validates a program before
// planning it; the checks here guard direct construction, and try_build
// turns a failure into "no plan".
struct MemoryPlan::Analysis {
  const NetworkProgram& program;
  std::vector<runtime::BufferInterval> intervals;
  std::vector<OpMemory> per_op;
  std::vector<ActivationInterval> acts;
  std::vector<Shape> act_shapes;  // parallel to acts
  std::size_t quant_peak_values = 0;

  explicit Analysis(const NetworkProgram& p) : program(p) {
    const std::size_t n = p.ops.size();
    per_op.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      per_op[i].op = static_cast<std::uint32_t>(i);
      per_op[i].kind = p.ops[i].kind;
    }
    if (n == 0) return;
    FLIGHTNN_CHECK(p.input_c > 0 && p.input_h > 0 && p.input_w > 0,
                   "memory plan: bad input geometry [", p.input_c, ", ",
                   p.input_h, ", ", p.input_w, "]");
    // run()'s entry copy of the image.
    std::size_t cur = define(0, Shape{p.input_c, p.input_h, p.input_w});
    std::size_t cursor = 0;
    while (cursor < n) cur = walk_op(cursor, cur);
    // The logits tensor is handed to the caller, so it lives through the
    // last op.
    use(cur, static_cast<std::uint32_t>(n - 1));
  }

  std::size_t define(std::uint32_t t, Shape shape) {
    acts.push_back(ActivationInterval{
        static_cast<std::size_t>(shape.numel()), t, t});
    act_shapes.push_back(std::move(shape));
    if (t < per_op.size()) {
      per_op[t].activation_bytes = acts.back().numel * sizeof(float);
    }
    return acts.size() - 1;
  }

  void use(std::size_t act, std::uint32_t t) {
    acts[act].last_use_op = std::max(acts[act].last_use_op, t);
  }

  void note_quant(OpMemory& mem, std::int64_t values) {
    mem.quant_bytes =
        static_cast<std::size_t>(values) * sizeof(std::int32_t);
    quant_peak_values =
        std::max(quant_peak_values, static_cast<std::size_t>(values));
  }

  // Walk the ops of a residual main or shortcut chain: entry deep copy, then
  // each op consuming the previous output. `t_fallback` is the time an
  // empty chain's pass-through copy happens at.
  std::size_t walk_chain(std::size_t& cursor, std::int64_t count,
                         std::size_t input_act, std::uint32_t t_fallback) {
    if (count == 0) {
      use(input_act, t_fallback);
      return define(t_fallback, act_shapes[input_act]);
    }
    const auto entry = static_cast<std::uint32_t>(cursor);
    use(input_act, entry);
    std::size_t chain = define(entry, act_shapes[input_act]);
    const std::size_t seg_end = cursor + static_cast<std::size_t>(count);
    while (cursor < seg_end) chain = walk_op(cursor, chain);
    return chain;
  }

  std::size_t walk_op(std::size_t& cursor, std::size_t cur) {  // NOLINT(misc-no-recursion)
    const auto t = static_cast<std::uint32_t>(cursor);
    const ProgramOp& op = program.ops[cursor];
    ++cursor;
    OpMemory& mem = per_op[t];
    const Shape in = act_shapes[cur];  // copy: acts may reallocate below
    switch (op.kind) {
      case ProgramOpKind::kQuantAct:
      case ProgramOpKind::kAffine:
      case ProgramOpKind::kLeakyRelu: {
        use(cur, t);
        return define(t, in);
      }
      case ProgramOpKind::kShiftConv: {
        FLIGHTNN_CHECK(in.rank() == 3, "memory plan: shift conv at op ", t,
                       " expects CHW input, got ", in.to_string());
        const std::int64_t out_c = op.out_channels, in_c = op.in_channels,
                           kernel = op.kernel;
        FLIGHTNN_CHECK(out_c > 0 && in_c > 0 && kernel > 0 && op.stride > 0 &&
                           op.padding >= 0,
                       "memory plan: bad shift conv geometry at op ", t);
        const tensor::ConvGeometry geom{in_c, in[1], in[2], kernel, op.stride,
                                        op.padding};
        const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
        FLIGHTNN_CHECK(out_h > 0 && out_w > 0,
                       "memory plan: shift conv at op ", t,
                       " produces empty output from ", in.to_string());
        note_quant(mem, in.numel());
        mem.offsets_bytes =
            static_cast<std::size_t>(op.plan.entries()) * sizeof(std::int64_t);
        const std::size_t acc_elem =
            plan_narrow_accumulator(op.plan, op.act_bits)
                ? sizeof(std::int32_t)
                : sizeof(std::int64_t);
        mem.accumulator_bytes =
            static_cast<std::size_t>(out_h * out_w) * acc_elem;
        mem.scratch_bytes = mem.offsets_bytes + mem.accumulator_bytes;
        intervals.push_back(runtime::BufferInterval{
            t, runtime::Scratch::kConvOffsets, mem.offsets_bytes, t, t,
            runtime::kUnassignedOffset});
        intervals.push_back(runtime::BufferInterval{
            t, runtime::Scratch::kConvAccumulator, mem.accumulator_bytes, t, t,
            runtime::kUnassignedOffset});
        use(cur, t);
        return define(t, Shape{out_c, out_h, out_w});
      }
      case ProgramOpKind::kFloatConv: {
        FLIGHTNN_CHECK(in.rank() == 3, "memory plan: float conv at op ", t,
                       " expects CHW input, got ", in.to_string());
        const auto& ws = op.weights.shape();
        FLIGHTNN_CHECK(ws.rank() == 4, "memory plan: float conv weights at op ",
                       t, " must be OIHW");
        const tensor::ConvGeometry geom{ws[1], in[1], in[2], ws[2], op.stride,
                                        op.padding};
        FLIGHTNN_CHECK(geom.out_h() > 0 && geom.out_w() > 0,
                       "memory plan: float conv at op ", t,
                       " produces empty output");
        use(cur, t);
        return define(t, Shape{ws[0], geom.out_h(), geom.out_w()});
      }
      case ProgramOpKind::kMaxPool: {
        FLIGHTNN_CHECK(in.rank() == 3 && op.window > 0 && op.stride > 0 &&
                           in[1] >= op.window && in[2] >= op.window,
                       "memory plan: bad max pool at op ", t, " on input ",
                       in.to_string());
        const std::int64_t out_h = (in[1] - op.window) / op.stride + 1;
        const std::int64_t out_w = (in[2] - op.window) / op.stride + 1;
        use(cur, t);
        return define(t, Shape{in[0], out_h, out_w});
      }
      case ProgramOpKind::kGap: {
        FLIGHTNN_CHECK(in.rank() == 3, "memory plan: gap at op ", t,
                       " expects CHW input, got ", in.to_string());
        use(cur, t);
        return define(t, Shape{in[0]});
      }
      case ProgramOpKind::kFlatten: {
        use(cur, t);
        return define(t, Shape{in.numel()});
      }
      case ProgramOpKind::kShiftLinear: {
        const std::int64_t out_f = op.out_channels;
        FLIGHTNN_CHECK(out_f > 0, "memory plan: bad shift linear at op ", t);
        note_quant(mem, in.numel());
        use(cur, t);
        return define(t, Shape{out_f});
      }
      case ProgramOpKind::kFloatLinear: {
        const auto& ws = op.weights.shape();
        FLIGHTNN_CHECK(ws.rank() == 2, "memory plan: float linear weights at op ",
                       t, " must be [out, in]");
        use(cur, t);
        return define(t, Shape{ws[0]});
      }
      case ProgramOpKind::kResidual: {
        const auto remaining =
            static_cast<std::int64_t>(program.ops.size() - cursor);
        FLIGHTNN_CHECK(op.main_ops >= 0 && op.shortcut_ops >= 0 &&
                           op.post_ops >= 0 &&
                           op.main_ops + op.shortcut_ops + op.post_ops <=
                               remaining,
                       "memory plan: residual at op ", t, " claims ",
                       op.main_ops + op.shortcut_ops + op.post_ops,
                       " child ops but only ", remaining, " remain");
        FLIGHTNN_CHECK(op.has_shortcut || op.shortcut_ops == 0,
                       "memory plan: residual without shortcut claims ",
                       op.shortcut_ops, " shortcut ops");
        // run_op's residual: main chain, then shortcut chain (both deep-copy
        // the input at entry), then `main_out += skip_out` in place, then the
        // post chain on main_out's buffer.
        const std::size_t main_out = walk_chain(cursor, op.main_ops, cur, t);
        std::size_t skip_out = acts.size();  // placeholder
        const bool skip_is_chain = op.has_shortcut && op.shortcut_ops > 0;
        if (skip_is_chain) {
          skip_out = walk_chain(cursor, op.shortcut_ops, cur,
                                static_cast<std::uint32_t>(cursor - 1));
        }
        // The add happens after both chains; its time is the last executed
        // child op (or the header itself when both chains are empty).
        const auto t_add = static_cast<std::uint32_t>(cursor - 1);
        if (!skip_is_chain) {
          // skip_out is a plain copy of the input made at the add.
          use(cur, t_add);
          skip_out = define(t_add, in);
        }
        use(main_out, t_add);
        use(skip_out, t_add);
        const std::size_t post_end =
            cursor + static_cast<std::size_t>(op.post_ops);
        std::size_t out = main_out;
        while (cursor < post_end) out = walk_op(cursor, out);
        return out;
      }
    }
    FLIGHTNN_CHECK(false, "memory plan: unknown op kind ",
                   static_cast<std::uint32_t>(op.kind));
    return cur;  // unreachable
  }
};

MemoryPlan::MemoryPlan(const NetworkProgram& program)
    : MemoryPlan(Analysis(program)) {}

MemoryPlan::MemoryPlan(Analysis&& analysis)
    : layout_(std::move(analysis.intervals),
              static_cast<std::uint32_t>(analysis.per_op.size())),
      per_op_(std::move(analysis.per_op)),
      activations_(std::move(analysis.acts)),
      quant_peak_values_(analysis.quant_peak_values) {
  // Propagate the colored offsets back into the per-op census.
  for (const runtime::BufferInterval& interval : layout_.intervals()) {
    OpMemory& mem = per_op_[interval.op];
    mem.scratch_offset = std::min(mem.scratch_offset, interval.offset);
  }
  // Activation peak and per-numel working set: sweep every op time and count
  // the live intervals. O(ops * activations) -- trivially fast at network
  // sizes and only run at plan-compile time.
  std::map<std::size_t, std::size_t> peak_by_numel;
  std::map<std::size_t, std::size_t> live_by_numel;
  for (std::uint32_t t = 0; t < per_op_.size(); ++t) {
    std::size_t live_bytes = 0;
    live_by_numel.clear();
    for (const ActivationInterval& act : activations_) {
      if (act.def_op <= t && t <= act.last_use_op) {
        live_bytes += act.numel * sizeof(float);
        ++live_by_numel[act.numel];
      }
    }
    activation_peak_bytes_ = std::max(activation_peak_bytes_, live_bytes);
    for (const auto& [numel, count] : live_by_numel) {
      std::size_t& best = peak_by_numel[numel];
      best = std::max(best, count);
    }
  }
  working_set_.assign(peak_by_numel.begin(), peak_by_numel.end());
}

std::shared_ptr<const MemoryPlan> MemoryPlan::try_build(
    const NetworkProgram& program) {
  try {
    return std::make_shared<const MemoryPlan>(program);
  } catch (const support::CheckFailure& failure) {
    // The planner objects to the program (from_program has already
    // validated its structure): execution stays on the dynamic route.
    support::log_debug() << "memory plan: analysis failed, staying dynamic: "
                         << failure.what();
    return nullptr;
  }
}

void MemoryPlan::warm_thread() const {
  runtime::ScratchArena::current().adopt_layout(layout_);
  for (const auto& [numel, count] : working_set_) {
    tensor::pool::prewarm(numel, count);
  }
  reserve_quant_scratch(quant_peak_values_);
}

}  // namespace flightnn::inference
