#pragma once

// Vectorized uniform shift-stream kernels (DESIGN.md §14). The paper's
// Fig. 3 argument -- a k_i=2 filter is two k=1 filters whose feature maps
// add -- means every compiled ShiftPlan is already a uniform stream of
// (input index, signed power-of-two multiplier) entries. These kernels
// execute that stream in 8-wide int32 lanes, as output-stationary
// register-blocked multiply-accumulate over contiguous rows of the engine's
// zero-padded, stride-phased input plane (every output pixel reads in
// bounds, at every stride). There is one kernel: a linear layer runs as a
// 1x1 conv on a 1x1 plane.
//
// Tiers. kScalar is the portable fallback and the bit-exact oracle; kAvx2
// is compiled with a per-function target attribute (the portable build
// carries no -march flags, same idiom as the GEMM microkernel) and only
// dispatched after __builtin_cpu_supports confirms AVX2. Both tiers add
// the same multiset of integer addends to every accumulator and no partial
// sum can overflow its lane (see the narrow-path bound below), so integer
// associativity/commutativity makes their outputs bit-identical -- any
// lane/block/thread regrouping is exact (DESIGN.md §9, §14).
//
// Overflow contract. Callers may use these kernels only when the layer's
// narrow bound holds: max|q| * max_f filter_gain[f] <= INT32_MAX. That
// bound sums absolute contributions, so it covers every int32 lane partial
// sum, every scalar partial sum, and the per-entry multiplier
// sign * 2^shift itself (shift <= 30 follows from the bound).
//
// Dispatch. active_shift_kernels() resolves once from the CPU, the
// FLIGHTNN_FORCE_SCALAR environment knob, and an optional per-process test
// override. shift_kernels_for() exposes both tables so differential tests
// can drive each tier explicitly.

#include <cstdint>

namespace flightnn::inference {

enum class KernelTier : int { kScalar = 0, kAvx2 = 1 };

// Stable lowercase name for bench JSON / --profile output.
const char* kernel_tier_name(KernelTier tier);

// Geometry of the conv kernels. The engine's zero-padded, stride-phased
// input plane (ShiftConv2d::run) puts tap e of output (oy, ox) at
// off[e] + oy*row_step + ox, in bounds for every output pixel at any stride.
struct ConvInteriorGeom {
  std::int64_t row_step = 0;  // input elements from output row oy to oy + 1
  std::int64_t out_h = 0;
  std::int64_t out_w = 0;
};

// Accumulate filter entries [fb, fe) into the int32 plane `acc` (caller
// zeroes it): for every output (oy, ox),
// acc[oy*out_w+ox] += in[off[e] + oy*row_step + ox] * mult[e].
// `mult` is the plan's derived sign*2^shift stream.
using ConvInteriorFn = void (*)(const std::int32_t* in, const std::int32_t* off,
                                const std::int32_t* mult, std::int64_t fb,
                                std::int64_t fe, const ConvInteriorGeom& geom,
                                std::int32_t* acc);

struct ShiftKernels {
  KernelTier tier = KernelTier::kScalar;
  ConvInteriorFn conv_interior_i32 = nullptr;
};

// Kernel table for a tier. Requesting kAvx2 on a CPU without AVX2 returns
// the scalar table, so the result is always safe to call.
const ShiftKernels& shift_kernels_for(KernelTier tier);

// Tier resolved once per process from FLIGHTNN_FORCE_SCALAR (any nonzero
// integer forces kScalar) and the CPU's capabilities.
KernelTier detected_kernel_tier();

// detected_kernel_tier() unless a test override is installed.
const ShiftKernels& active_shift_kernels();

// Test hook: force a tier for subsequent active_shift_kernels() calls
// (0 = scalar, 1 = avx2, -1 = clear the override). Differential tests flip
// this between runs of the same engine; not for production use.
void set_kernel_tier_override(int tier);

}  // namespace flightnn::inference
