#pragma once

// Dense int8 conv kernels (DESIGN.md §14). A LightNN-k weight with k <= 2 in
// the default exponent range is sign*2^a + sign*2^b in units of 2^e_min, an
// integer in [-128, 128] (ShiftPlan::compile_conv stores it as int8,
// negating a filter that reaches +128). A
// dot product of 8-bit activation codes with those integers adds exactly
// the integers the term walk of the shift-add datapath adds, so a CPU's
// int8 dot-product instruction runs a shift conv bit-exactly.
//
// Operands. The engine's code plane (ShiftConv2d::run) holds u = q + 128 as
// u8, four input channels per 32-bit word, in the zero-padded,
// stride-phased layout of DESIGN.md §9: tap t of output (oy, ox) reads word
// tap_off[t] + oy*row_step + ox, in bounds for every output pixel at any
// stride. Pad cells and channels past in_channels hold 128 (q = 0). The
// weights are the adopted pack's words (adopt_plan): four int8 weights per
// int32, in the same channel order, laid out as [block of kFilterBlock live
// filters][tap][filter], the last block zero-padded. Live filter j's word
// at tap t is words[(j / 16) * 16 * taps + t * 16 + j % 16].
//
// Exactness. Every tier computes, in wrapping 32-bit arithmetic,
// sum_t dot4(u, w) - 128 * sum(w) = sum_t dot4(q, w) (mod 2^32). The codes
// are int8, |q| <= 128, and the engine runs only packs whose filters have
// 128 * sum |w| <= INT32_MAX (adopt_plan refuses the rest), so that residue
// is the exact sum the term walk adds. No tier saturates: VNNI's
// vpdpbusd wraps, and the AVX2 tier builds the same products with vpmaddwd
// on zero-extended code bytes and sign-extended weight bytes (vpmaddubsw,
// which saturates, is never used).
//
// Tiles. Each vector tier has two tiles over the same operands. The column
// tile vectorizes across output columns (8 per ymm, 16 per zmm) and keeps 2
// rows x 4 filters of accumulators in registers; it fills its lanes on
// planes at least a vector wide. The filter tile vectorizes across live
// filters: a block's 16 (VNNI) or 8 (AVX2) words of a tap per register,
// each code word broadcast, 8 output pixels of accumulators per block (two
// blocks at once on VNNI); it fills its lanes on narrow planes, where the
// column tile cannot. Tails (columns past a vector, a live count that is
// not a multiple of the width, pixels past a tile) are masked or stored
// lane by lane, so no tile reads or writes a byte past the code plane, the
// pack or the output planes. kScalar is the portable fallback and the
// oracle both tiles are diffed against; it walks taps outer and columns
// inner, so the compiler vectorizes its column loop, and runs for either
// tile.
//
// Dispatch. active_shift_kernels() resolves once from the CPU, the
// FLIGHTNN_FORCE_SCALAR environment knob, and an optional per-process test
// override; the vector tiers are compiled with per-function target
// attributes (the portable build carries no -march flags) and only
// dispatched after __builtin_cpu_supports confirms the ISA. pick_conv_tile
// is the measured rule that chooses a layer's tile from its output plane
// and live count. shift_kernels_for() exposes each tier's table so
// differential tests can drive both tiles explicitly.

#include <cstdint>

namespace flightnn::inference {

enum class KernelTier : int { kScalar = 0, kAvx2 = 1, kVnni = 2 };

// Stable lowercase name for bench JSON / --profile output: "scalar",
// "avx2" or "vnni".
const char* kernel_tier_name(KernelTier tier);

// Live filters per block of the adopted words: the filter tile's width on
// VNNI (16 int32 lanes), two registers on AVX2, and run()'s unit of work
// for it.
inline constexpr int kFilterBlock = 16;

// Filters per column-tile call: its register block.
inline constexpr int kColumnFilters = 4;

enum class ConvTile : int { kColumn = 0, kFilter = 1 };

// Stable lowercase name for --profile output: "column" or "filter".
const char* conv_tile_name(ConvTile tile);

// One layer's operands for the dense kernels.
struct DenseConv {
  const std::uint32_t* codes = nullptr;   // the code plane
  const std::int32_t* tap_off = nullptr;  // [taps] word offsets into it
  const std::int32_t* words = nullptr;    // the blocked pack (see Operands)
  // Per live filter: the sum the code offset adds (AdoptedPlan::correction).
  const std::int32_t* correction = nullptr;
  // Per live filter: its output channel, whose plane starts at
  // out + live[j] * out_h * out_w.
  const std::int32_t* live = nullptr;
  std::int32_t* out = nullptr;
  std::int64_t row_step = 0;  // code words from output row oy to oy + 1
  std::int64_t out_h = 0;
  std::int64_t out_w = 0;
  std::int64_t taps = 0;  // words per filter (entries of tap_off)
};

// For live filters j in [first, end), writes every output (oy, ox) of the
// plane of filter j:
//   sum_t dot4(codes[tap_off[t] + oy*row_step + ox], word(j, t))
//       - correction[j]
// in wrapping 32-bit arithmetic, dot4 multiplying the code word's four u8
// codes by the weight word's four int8 weights. The engine points `out` at
// its float output tensor and dequantizes the planes in place afterwards;
// every tier writes through std::memcpy or vector stores, which may alias
// any type. A filter-tile call reads every word of the blocks [first, end)
// touches, padding included; a column-tile call only those of its filters.
using DenseConvFn = void (*)(const DenseConv& conv, std::int64_t first,
                             std::int64_t end);

struct ShiftKernels {
  KernelTier tier = KernelTier::kScalar;
  DenseConvFn column_tile = nullptr;
  DenseConvFn filter_tile = nullptr;

  [[nodiscard]] DenseConvFn dense_conv(ConvTile tile) const {
    return tile == ConvTile::kFilter ? filter_tile : column_tile;
  }
};

// The tile a tier runs a layer of `live` filters on an out_h x out_w output
// plane with: the one whose estimated vector work per tap is smaller. The
// column tile runs ceil(out_w / lanes) vectors per output row and filter,
// the filter tile ceil(live / lanes) per output pixel, its pixels counted
// in whole steps of 8 (a tail step fills all eight accumulators), each of
// those costing the tier's measured ratio more (DESIGN.md §14). kColumn on
// the scalar tier, which runs both tiles the same way.
ConvTile pick_conv_tile(KernelTier tier, std::int64_t out_h,
                        std::int64_t out_w, std::int64_t live);

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
