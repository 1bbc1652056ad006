#include "inference/memory_plan.hpp"

#include <algorithm>
#include <map>

#include "inference/quantized_network.hpp"
#include "runtime/scratch_arena.hpp"
#include "tensor/buffer_pool.hpp"

namespace flightnn::inference {

MemoryPlan::MemoryPlan(std::vector<OpMemory> per_op,
                       const std::vector<ActivationInterval>& activations)
    : per_op_(std::move(per_op)) {
  for (const OpMemory& mem : per_op_) {
    offsets_peak_bytes_ = std::max(offsets_peak_bytes_, mem.offsets_bytes);
    input_peak_bytes_ = std::max(input_peak_bytes_, mem.input_bytes);
    quant_peak_bytes_ = std::max(quant_peak_bytes_, mem.quant_bytes);
  }
  // Per-numel working set: sweep every op time and count the live
  // intervals. O(ops * activations) -- trivially fast at network sizes and
  // only run at load time.
  std::map<std::size_t, std::size_t> peak_by_numel;
  std::map<std::size_t, std::size_t> live_by_numel;
  for (std::uint32_t t = 0; t < per_op_.size(); ++t) {
    live_by_numel.clear();
    for (const ActivationInterval& act : activations) {
      if (act.def_op <= t && t <= act.last_use_op) ++live_by_numel[act.numel];
    }
    for (const auto& [numel, count] : live_by_numel) {
      std::size_t& best = peak_by_numel[numel];
      best = std::max(best, count);
    }
  }
  working_set_.assign(peak_by_numel.begin(), peak_by_numel.end());
  for (const auto& [numel, count] : working_set_) {
    activation_pool_bytes_ += numel * count * sizeof(float);
  }
}

void MemoryPlan::warm_thread() const {
  runtime::ScratchArena& arena = runtime::ScratchArena::current();
  arena.reserve(runtime::Scratch::kConvOffsets, offsets_peak_bytes_);
  arena.reserve(runtime::Scratch::kConvInput, input_peak_bytes_);
  for (const auto& [numel, count] : working_set_) {
    tensor::pool::prewarm(numel, count);
  }
  reserve_quant_scratch(quant_peak_bytes_);
}

}  // namespace flightnn::inference
