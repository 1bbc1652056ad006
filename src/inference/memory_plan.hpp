#pragma once

// What one thread's run() of a compiled network asks of memory
// (DESIGN.md §15). QuantizedNetwork::from_program records it in its
// load-time walk -- the one walk that follows the program's shapes op by
// op, checks them and takes the op census -- so the artifact load path gets
// it too and the artifact stores none of it. The walk reads plan sizes from
// the shift engines and records, per op, exactly which buffers run() touches:
//
//   - Arena scratch (each shift op's per-tap offset table, u8 code plane
//     and the int8 codes of its input, sized by ShiftConv2d::scratch_bytes;
//     a linear op is a 1x1 conv and fetches the same three slots): the
//     grow-once slots of runtime::ScratchArena. Every buffer is live for
//     one op only, so a slot's high-water mark is the largest request any
//     op makes, and warm_thread reserves each slot to it.
//   - Activations: value-semantic pooled tensors, so they stay in
//     tensor::pool. run() acquires one for its copy of the image, one per
//     op that changes the shape (an op that keeps it rewrites its input in
//     place) and one per residual block, whose main chain starts on a copy
//     of the block input. The walk replays these acquires and the releases
//     run_op makes, counting live buffers per element count as the pool
//     counts its demand, and warm_thread prewarms the pool with the most of
//     each count live at once, which removes the first-batch warmup
//     allocations on that route too.

#include <cstddef>
#include <cstdint>
#include <map>
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
  std::size_t codes_bytes = 0;    // the int8 codes of the op's input
  std::size_t scratch_bytes = 0;  // offsets + input + codes
};

class MemoryPlan {
 public:
  MemoryPlan() = default;

  // Derives the slot peaks from the walk's per-op rows; `working_set` maps
  // each element count to the most pooled buffers of it run() has out at
  // once.
  MemoryPlan(std::vector<OpMemory> per_op,
             std::map<std::size_t, std::size_t> working_set);

  // Arena scratch one thread holds after warm_thread: the largest offset
  // table, the largest code plane and the largest input's int8 codes.
  [[nodiscard]] std::size_t arena_capacity_bytes() const {
    return offsets_peak_bytes_ + input_peak_bytes_ + codes_peak_bytes_;
  }
  // Bytes warm_thread parks in the thread's tensor pool: the activation
  // working set, sum of numel x count x sizeof(float). The pool keys
  // buffers by element count and cannot lend one size's buffer to another,
  // so this is what it holds for run(), more than the peak of the live
  // activation bytes.
  [[nodiscard]] std::size_t activation_pool_bytes() const {
    return activation_pool_bytes_;
  }
  // Bytes one thread holds after warm_thread, and still after any run():
  // the arena scratch and the pooled activation working set. What
  // --mem-budget multiplies by the thread count.
  [[nodiscard]] std::size_t planned_per_thread_bytes() const {
    return arena_capacity_bytes() + activation_pool_bytes();
  }
  // One row per flat program op.
  [[nodiscard]] const std::vector<OpMemory>& per_op() const { return per_op_; }

  // Prepare the calling thread for allocation-free execution from the
  // first batch: reserve the arena's conv slots to their peaks and prewarm
  // the buffer pool with the activation working set.
  void warm_thread() const;

 private:
  std::vector<OpMemory> per_op_;
  // Exact pool prewarm recipe: numel -> max simultaneous live tensors of
  // that numel over the whole program.
  std::map<std::size_t, std::size_t> working_set_;
  std::size_t offsets_peak_bytes_ = 0;
  std::size_t input_peak_bytes_ = 0;
  std::size_t codes_peak_bytes_ = 0;
  std::size_t activation_pool_bytes_ = 0;
};

}  // namespace flightnn::inference
