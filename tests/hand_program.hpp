#pragma once

// Hand-built network programs over a [2, 4, 4] input, for the suites that
// check what from_program and run() do with a program whoever built it:
// its checks (quantized_network_test) and its pool traffic, replayed by
// the load walk (memory_plan_test).

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "inference/network_program.hpp"
#include "inference/shift_plan.hpp"
#include "quant/pow2.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::inference::hand {

inline ProgramOp leaky_op() {
  ProgramOp op;
  op.kind = ProgramOpKind::kLeakyRelu;
  op.slope = 0.1F;
  return op;
}

inline ProgramOp max_pool_op(std::int64_t window, std::int64_t stride) {
  ProgramOp op;
  op.kind = ProgramOpKind::kMaxPool;
  op.window = window;
  op.stride = stride;
  return op;
}

inline ProgramOp residual_op(std::int64_t main_ops, std::int64_t shortcut_ops,
                             std::int64_t post_ops, bool has_shortcut) {
  ProgramOp op;
  op.kind = ProgramOpKind::kResidual;
  op.main_ops = main_ops;
  op.shortcut_ops = shortcut_ops;
  op.post_ops = post_ops;
  op.has_shortcut = has_shortcut;
  return op;
}

inline NetworkProgram hand_program(std::vector<ProgramOp> ops) {
  NetworkProgram program;
  program.ops = std::move(ops);
  program.input_c = 2;
  program.input_h = 4;
  program.input_w = 4;
  return program;
}

// A shift conv over the [2, 4, 4] input: 2 filters of [2, 3, 3], padding 1,
// the default window (e_max - e_min = 6). In units of 2^e_min, filter 0
// holds 64, -8 and 1 and filter 1 holds 4 and -2.
inline ProgramOp shift_conv_op() {
  const float unit = std::ldexp(1.0F, quant::Pow2Config{}.e_min);
  tensor::Tensor wq = tensor::Tensor::zeros(tensor::Shape{2, 2, 3, 3});
  // (filter, channel, ky, kx, units)
  const int weights[][5] = {{0, 0, 0, 0, 64}, {0, 1, 2, 1, -8},
                            {0, 1, 1, 1, 1},  {1, 0, 1, 1, 4},
                            {1, 1, 0, 2, -2}};
  for (const auto& w : weights) {
    wq[((w[0] * 2 + w[1]) * 3 + w[2]) * 3 + w[3]] =
        static_cast<float>(w[4]) * unit;
  }
  ProgramOp op;
  op.kind = ProgramOpKind::kShiftConv;
  op.out_channels = 2;
  op.in_channels = 2;
  op.kernel = 3;
  op.stride = 1;
  op.padding = 1;
  CompiledPlan compiled = ShiftPlan::compile_conv(wq, 2, op.pow2);
  op.term_count = compiled.term_count;
  op.plan = std::move(compiled.plan);
  return op;
}

}  // namespace flightnn::inference::hand
