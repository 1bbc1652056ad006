#pragma once

// Dense int8 conv kernels (DESIGN.md §14). A LightNN-k weight with k <= 2 in
// the default exponent range is sign*2^a + sign*2^b in units of 2^e_min, an
// integer in [-128, 128] (ShiftPlan's pack_dense rebuilds it from the plan's
// entries and packs it as int8, negating a filter that reaches +128). A
// dot product of 8-bit activation codes with those integers adds exactly
// the integers the term walk of the shift-add datapath adds, so a CPU's
// int8 dot-product instruction runs a shift conv bit-exactly.
//
// Operands. The engine's code plane (ShiftConv2d::run) holds u = q + 128 as
// u8, four input channels per 32-bit word, in the zero-padded,
// stride-phased layout of DESIGN.md §9: tap t of output (oy, ox) reads word
// tap_off[t] + oy*row_step + ox, in bounds for every output pixel at any
// stride. Pad cells and channels past in_channels hold 128 (q = 0). The
// weights are the pack's words: four int8 weights per int32, in the same
// channel order. Each kernel call covers up to kDenseFilterBlock filters.
//
// Exactness. Every tier computes, in wrapping 32-bit arithmetic,
// sum_t dot4(u, w) - 128 * sum(w) = sum_t dot4(q, w) (mod 2^32). The engine
// runs only codes with |q| <= 127 and only packs whose filters have
// 127 * sum |w| <= INT32_MAX (pack_dense refuses the rest), so that
// residue is the exact sum the term walk adds. No tier saturates: VNNI's
// vpdpbusd wraps, and the AVX2 tier builds the same products with vpmaddwd
// on zero-extended code bytes and sign-extended weight bytes (vpmaddubsw,
// which saturates, is never used).
//
// Tiers. kScalar is the portable fallback and the oracle the vector tiers
// are diffed against; it walks taps outer and columns inner, like them, so
// the compiler vectorizes its column loop. kAvx2 and kVnni are compiled
// with per-function target attributes (the portable build carries no
// -march flags) and only dispatched after __builtin_cpu_supports confirms
// the ISA. Both vector tiers vectorize across output columns (8 per ymm,
// 16 per zmm) and keep 2 rows x 4 filters of accumulators in registers;
// column tails use masked loads and stores, so no tier reads or writes a
// byte past the code plane or the output plane.
//
// Dispatch. active_shift_kernels() resolves once from the CPU, the
// FLIGHTNN_FORCE_SCALAR environment knob, and an optional per-process test
// override. shift_kernels_for() exposes each tier's table so differential
// tests can drive it explicitly.

#include <cstdint>

namespace flightnn::inference {

enum class KernelTier : int { kScalar = 0, kAvx2 = 1, kVnni = 2 };

// Stable lowercase name for bench JSON / --profile output: "scalar",
// "avx2" or "vnni".
const char* kernel_tier_name(KernelTier tier);

// Filters per kernel call: the register block of the vector tiers.
inline constexpr int kDenseFilterBlock = 4;

// Geometry of one dense kernel call.
struct DenseConvGeom {
  std::int64_t row_step = 0;  // code words from output row oy to oy + 1
  std::int64_t out_h = 0;
  std::int64_t out_w = 0;
  std::int64_t taps = 0;  // words per filter (entries of tap_off)
};

// For filters j < `filters` (1..kDenseFilterBlock), whose packed words are
// weights[j*taps, (j+1)*taps), writes every output (oy, ox):
//   out[j][oy*out_w + ox] = sum_t dot4(codes[tap_off[t] + oy*row_step + ox],
//                                      weights[j*taps + t]) - correction[j]
// in wrapping 32-bit arithmetic, dot4 multiplying the word's four u8 codes
// by the four int8 weights. The engine points `out` at its float output
// planes and dequantizes them in place afterwards; every tier writes `out`
// through std::memcpy or vector stores, which may alias any type.
using DenseConvFn = void (*)(const std::uint32_t* codes,
                             const std::int32_t* tap_off,
                             const std::int32_t* weights,
                             const std::int32_t* correction, int filters,
                             const DenseConvGeom& geom,
                             std::int32_t* const* out);

struct ShiftKernels {
  KernelTier tier = KernelTier::kScalar;
  DenseConvFn dense_conv = nullptr;
};

// Kernel table for a tier. Requesting a tier the CPU lacks returns the
// scalar table, so the result is always safe to call.
const ShiftKernels& shift_kernels_for(KernelTier tier);

// Tier resolved once per process from FLIGHTNN_FORCE_SCALAR (any nonzero
// integer forces kScalar) and the CPU's capabilities: kVnni with AVX-512
// VNNI, else kAvx2 with AVX2, else kScalar.
KernelTier detected_kernel_tier();

// detected_kernel_tier() unless a test override is installed.
const ShiftKernels& active_shift_kernels();

// Test hook: force a tier for subsequent active_shift_kernels() calls
// (0 = scalar, 1 = avx2, 2 = vnni, -1 = clear the override). Differential
// tests flip this between runs of the same engine; not for production use.
void set_kernel_tier_override(int tier);

}  // namespace flightnn::inference
