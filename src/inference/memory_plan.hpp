#pragma once

// Offline buffer-liveness analysis over a NetworkProgram (DESIGN.md §15).
// At plan-compile time (and again in-loader for artifact-adopted programs,
// like PR 9's vector-stream rebuild -- the format stays v1) the planner
// simulates the program's execution shape-by-shape and derives, for every
// op, exactly which buffers its kernel will touch and for how long:
//
//   - Arena scratch (conv im2row offset tables and accumulator planes):
//     packed into one 64-byte-aligned per-thread arena by the interval
//     coloring in runtime/memory_plan.hpp. Accumulator extents use the
//     *static* narrow gate (plan_narrow_accumulator), so a plan that always
//     runs int32 is planned at 4 bytes/element, not the worst-case 8.
//   - Activations (op outputs, the run and residual chain-entry copies):
//     value-semantic pooled tensors, so they stay in tensor::pool; the
//     planner accounts their live intervals and prewarms the pool with the
//     exact working set (per-numel max simultaneous live count), which
//     removes the first-batch warmup allocations on that route too.
//   - Quantization scratch (the per-thread QuantizedActivations buffer):
//     sized to the largest shift-layer input and pre-reserved.
//
// The dynamic grow-once arena remains both the fallback (a fetch that
// misses its planned extent degrades to the dynamic slot and bumps a miss
// counter) and the differential oracle: FLIGHTNN_FORCE_DYNAMIC_ARENA=1 (or
// set_memory_planning_override) disables planning so tests can memcmp
// planned-vs-dynamic logits.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "inference/network_program.hpp"
#include "runtime/memory_plan.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::inference {

// Per-op memory census (observability: --profile's scratch column, the
// memory bench, DESIGN §15's planned-vs-measured table).
struct OpMemory {
  std::uint32_t op = 0;
  ProgramOpKind kind = ProgramOpKind::kQuantAct;
  // Arena-backed scratch this op's kernel fetches (planned extents).
  std::size_t offsets_bytes = 0;
  std::size_t accumulator_bytes = 0;
  std::size_t scratch_bytes = 0;  // offsets + accumulator
  // Lowest planned arena offset among this op's extents (kUnassignedOffset
  // when the op uses no arena scratch).
  std::size_t scratch_offset = runtime::kUnassignedOffset;
  std::size_t activation_bytes = 0;  // output tensor bytes (pool-backed)
  std::size_t quant_bytes = 0;       // quant-scratch bytes while running
};

// One live activation interval (pool accounting; not arena-backed).
struct ActivationInterval {
  std::size_t numel = 0;
  std::uint32_t def_op = 0;
  std::uint32_t last_use_op = 0;
};

class MemoryPlan {
 public:
  // Analyzes `program` and colors the arena layout. Throws CheckFailure on
  // programs whose structure or geometry the analysis cannot follow.
  explicit MemoryPlan(const NetworkProgram& program);

  // Builds a plan, or returns nullptr when the analysis rejects the program
  // (the network then runs on the dynamic arena).
  static std::shared_ptr<const MemoryPlan> try_build(
      const NetworkProgram& program);

  [[nodiscard]] const runtime::ArenaLayout& layout() const { return layout_; }
  [[nodiscard]] std::size_t arena_capacity_bytes() const {
    return layout_.capacity_bytes();
  }
  // Peak of the summed live activation bytes over the program (pool-backed
  // working set of the thread driving run()).
  [[nodiscard]] std::size_t activation_peak_bytes() const {
    return activation_peak_bytes_;
  }
  [[nodiscard]] std::size_t quant_peak_values() const {
    return quant_peak_values_;
  }
  [[nodiscard]] std::size_t quant_peak_bytes() const {
    return quant_peak_values_ * sizeof(std::int32_t);
  }
  // Planned bytes one worker thread holds in steady state: the arena block
  // plus its quantization scratch. (The thread running the step loop
  // additionally carries the activation working set.)
  [[nodiscard]] std::size_t planned_per_thread_bytes() const {
    return arena_capacity_bytes() + quant_peak_bytes();
  }
  [[nodiscard]] const std::vector<OpMemory>& per_op() const { return per_op_; }
  [[nodiscard]] const std::vector<ActivationInterval>& activations() const {
    return activations_;
  }
  // Exact pool prewarm recipe: (numel, max simultaneous live tensors of
  // that numel) over the whole program.
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>&
  activation_working_set() const {
    return working_set_;
  }

  // Prepare the calling thread for allocation-free planned execution from
  // the first batch: adopt the arena layout, prewarm the buffer pool with
  // the activation working set, and pre-reserve the quantization scratch.
  void warm_thread() const;

 private:
  struct Analysis;
  explicit MemoryPlan(Analysis&& analysis);

  runtime::ArenaLayout layout_;
  std::vector<OpMemory> per_op_;
  std::vector<ActivationInterval> activations_;
  std::vector<std::pair<std::size_t, std::size_t>> working_set_;
  std::size_t activation_peak_bytes_ = 0;
  std::size_t quant_peak_values_ = 0;
};

// --- Planned-arena policy ----------------------------------------------------
//
// Planning is on by default for every network from_program builds.
// FLIGHTNN_FORCE_DYNAMIC_ARENA=1 disables it process-wide; the programmatic
// override wins over the environment (differential tests flip it between
// runs of the same program).

// Whether from_program should attach a MemoryPlan right now.
[[nodiscard]] bool memory_planning_enabled();

// Test hook: 0 = force dynamic, 1 = force planned, -1 = clear (environment
// decides again).
void set_memory_planning_override(int mode);

}  // namespace flightnn::inference
