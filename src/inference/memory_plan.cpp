#include "inference/memory_plan.hpp"

#include <algorithm>
#include <utility>

#include "runtime/scratch_arena.hpp"
#include "tensor/buffer_pool.hpp"

namespace flightnn::inference {

MemoryPlan::MemoryPlan(std::vector<OpMemory> per_op,
                       std::map<std::size_t, std::size_t> working_set)
    : per_op_(std::move(per_op)), working_set_(std::move(working_set)) {
  for (const OpMemory& mem : per_op_) {
    offsets_peak_bytes_ = std::max(offsets_peak_bytes_, mem.offsets_bytes);
    input_peak_bytes_ = std::max(input_peak_bytes_, mem.input_bytes);
    codes_peak_bytes_ = std::max(codes_peak_bytes_, mem.codes_bytes);
  }
  for (const auto& [numel, count] : working_set_) {
    activation_pool_bytes_ += numel * count * sizeof(float);
  }
}

void MemoryPlan::warm_thread() const {
  runtime::ScratchArena& arena = runtime::ScratchArena::current();
  arena.reserve(runtime::Scratch::kConvOffsets, offsets_peak_bytes_);
  arena.reserve(runtime::Scratch::kConvInput, input_peak_bytes_);
  arena.reserve(runtime::Scratch::kConvCodes, codes_peak_bytes_);
  for (const auto& [numel, count] : working_set_) {
    tensor::pool::prewarm(numel, count);
  }
}

}  // namespace flightnn::inference
