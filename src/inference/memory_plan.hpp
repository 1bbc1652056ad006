#pragma once

// What one thread's run() of a compiled network asks of memory
// (DESIGN.md §15). QuantizedNetwork::from_program records it in its
// load-time walk -- the one walk that follows the program's shapes op by
// op, checks them and takes the op census -- so the artifact load path gets
// it too and the artifact stores none of it. The walk reads plan sizes from
// the shift engines and records, per op, exactly which buffers run() touches:
//
//   - Arena scratch (each shift op's per-tap offset table and u8 code
//     plane, sized by ShiftConv2d::scratch_bytes; a linear op is a 1x1 conv
//     and fetches the same two slots): the grow-once slots of
//     runtime::ScratchArena. Every buffer is live for one op only, so a
//     slot's high-water mark is the largest request any op makes, and
//     warm_thread reserves each slot to it.
//   - Activations: value-semantic pooled tensors, so they stay in
//     tensor::pool. run() allocates one for its copy of the image, one per
//     op that changes the shape (an op that keeps it rewrites its input in
//     place) and one per residual block, whose main chain starts on a copy
//     of the block input. The walk records their live intervals, and
//     warm_thread prewarms the pool with the exact working set (per-numel
//     max simultaneous live count), which removes the first-batch warmup
//     allocations on that route too.
//   - Quantization scratch (the per-thread QuantizedActivations buffer):
//     sized to the largest shift-layer input and pre-reserved.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "inference/network_program.hpp"
#include "inference/shift_kernels.hpp"

namespace flightnn::inference {

// Per-op row of the load walk: the op's memory census (observability:
// --profile's scratch column, the memory bench) and the kernel tile a
// shift op runs on.
struct OpMemory {
  std::uint32_t op = 0;
  ProgramOpKind kind = ProgramOpKind::kQuantAct;
  // The tile run() dispatches a shift op to, picked for its output plane
  // and live count (ShiftConv2d::tile); kColumn for every other op.
  ConvTile tile = ConvTile::kColumn;
  // Arena scratch this op's kernel fetches.
  std::size_t offsets_bytes = 0;
  std::size_t input_bytes = 0;    // the code plane
  std::size_t scratch_bytes = 0;  // offsets + input
  std::size_t quant_bytes = 0;    // quant-scratch bytes while running
};

// One activation run() holds, live over the inclusive flat-op interval
// [def_op, last_use_op] (pool accounting).
struct ActivationInterval {
  std::size_t numel = 0;
  std::uint32_t def_op = 0;
  std::uint32_t last_use_op = 0;
};

class MemoryPlan {
 public:
  MemoryPlan() = default;

  // Derives the peaks and the pool working set from the walk's per-op rows
  // and the live intervals of the activations run() allocates.
  MemoryPlan(std::vector<OpMemory> per_op,
             const std::vector<ActivationInterval>& activations);

  // Arena scratch one thread holds after warm_thread: the largest offset
  // table and the largest code plane.
  [[nodiscard]] std::size_t arena_capacity_bytes() const {
    return offsets_peak_bytes_ + input_peak_bytes_;
  }
  // Bytes warm_thread parks in the thread's tensor pool: the activation
  // working set, sum of numel x count x sizeof(float). The pool keys
  // buffers by element count and cannot lend one size's buffer to another,
  // so this is what it holds for run(), more than the peak of the live
  // activation bytes.
  [[nodiscard]] std::size_t activation_pool_bytes() const {
    return activation_pool_bytes_;
  }
  // The quantization scratch: one int8 code per element of the largest
  // shift-op input.
  [[nodiscard]] std::size_t quant_peak_bytes() const {
    return quant_peak_bytes_;
  }
  // Bytes one thread holds after warm_thread, and still after any run():
  // the arena scratch, the quantization scratch and the pooled activation
  // working set. What --mem-budget multiplies by the thread count.
  [[nodiscard]] std::size_t planned_per_thread_bytes() const {
    return arena_capacity_bytes() + quant_peak_bytes() +
           activation_pool_bytes();
  }
  // One row per flat program op.
  [[nodiscard]] const std::vector<OpMemory>& per_op() const { return per_op_; }

  // Prepare the calling thread for allocation-free execution from the
  // first batch: reserve the arena's conv slots to their peaks, prewarm the
  // buffer pool with the activation working set, and pre-reserve the
  // quantization scratch.
  void warm_thread() const;

 private:
  std::vector<OpMemory> per_op_;
  // Exact pool prewarm recipe: (numel, max simultaneous live tensors of
  // that numel) over the whole program.
  std::vector<std::pair<std::size_t, std::size_t>> working_set_;
  std::size_t offsets_peak_bytes_ = 0;
  std::size_t input_peak_bytes_ = 0;
  std::size_t activation_pool_bytes_ = 0;
  std::size_t quant_peak_bytes_ = 0;
};

}  // namespace flightnn::inference
