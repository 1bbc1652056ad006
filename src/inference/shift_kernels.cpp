#include "inference/shift_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <tuple>
#include <utility>

#include "support/annotations.hpp"
#include "support/env.hpp"
#include "support/simd.hpp"

#if FLIGHTNN_X86_DISPATCH
#include <immintrin.h>
#endif

namespace flightnn::inference {

namespace {

// Output columns per scalar tile: the accumulator rows of a filter group
// (4 x 64 x 4 B) stay in L1 across the whole tap walk.
constexpr std::int64_t kScalarCols = 64;

// Output pixels per filter-tile step: its accumulators, one register each.
constexpr int kTilePixels = 8;

// What one filter-tile vector step (one pixel, one register of filters, one
// tap) costs against one column-tile step (one row vector, one filter, one
// tap), as a ratio num / den: pick_conv_tile's measured crossover. Read from
// kernels_microbench's small-plane rows (BENCH_shift_engine.json; one
// pinned CPU of a 4-core AVX-512 VNNI host). A row's time ratio over its
// ratio of steps spreads too widely to be one constant (fixed per-call
// costs weigh on small layers; on a one-row plane the column tile's few
// accumulators wait on the multiply-add latency), so each ratio is set by
// the rows it must split. VNNI's lies in [1, 1.25): at 1 or more the 16x16
// and 32x32 planes keep the column tile, and below 1.25 the networks'
// 10-output linear layers take the filter tile, which ran them faster in
// every run; the tiny FLightNN's 8x8 layer of 12 live filters, where the
// two tiles come within a few percent of each other in most runs, takes
// the filter tile. AVX2's lies in [1, 1.5), which every row but the
// 256->64 linear one (not a layer of the networks) agrees with.
struct TileCost {
  std::int64_t num;
  std::int64_t den;
};
constexpr TileCost kVnniFilterCost{9, 8};
constexpr TileCost kAvx2FilterCost{11, 10};

// Live filter j's word at tap 0 of the blocked pack; its word at tap t is
// kFilterBlock words further on per tap.
inline const std::int32_t* filter_words(const DenseConv& c, std::int64_t j) {
  return c.words + (j / kFilterBlock) * kFilterBlock * c.taps +
         j % kFilterBlock;
}

// The output plane of live filter j.
inline std::int32_t* plane_of(const DenseConv& c, std::int64_t j) {
  return c.out + std::int64_t{c.live[j]} * c.out_h * c.out_w;
}

// Portable scalar tier: the fallback on hosts without AVX2 and the oracle
// both vector tiles are diffed against. Groups of kColumnFilters filters,
// tap-outer and column-inner like the column tiles: per output row, up to
// kScalarCols columns of each filter's accumulators stay on the stack
// across the tap walk, and the column loop, one tap word of four u8 x s8
// products per column, is the one the compiler vectorizes. Unsigned
// arithmetic is the wrapping 32-bit sum every tier computes.
FLIGHTNN_HOT FLIGHTNN_INT_KERNEL void dense_conv_scalar(const DenseConv& c,
                                                        std::int64_t first,
                                                        std::int64_t end) {
  std::uint32_t acc[kColumnFilters][kScalarCols] = {};
  for (std::int64_t j0 = first; j0 < end; j0 += kColumnFilters) {
    const auto filters =
        static_cast<int>(std::min<std::int64_t>(kColumnFilters, end - j0));
    const std::int32_t* weights[kColumnFilters] = {};
    std::int32_t* planes[kColumnFilters] = {};
    for (int j = 0; j < filters; ++j) {
      weights[j] = filter_words(c, j0 + j);
      planes[j] = plane_of(c, j0 + j);
    }
    for (std::int64_t oy = 0; oy < c.out_h; ++oy) {
      const std::uint32_t* row = c.codes + oy * c.row_step;
      for (std::int64_t x0 = 0; x0 < c.out_w; x0 += kScalarCols) {
        const std::int64_t n = std::min(kScalarCols, c.out_w - x0);
        for (int j = 0; j < filters; ++j) {
          std::fill(acc[j], acc[j] + n, std::uint32_t{0});
        }
        for (std::int64_t t = 0; t < c.taps; ++t) {
          const std::uint32_t* code = row + c.tap_off[t] + x0;
          for (int j = 0; j < filters; ++j) {
            // The four weight bytes, sign-extended; as uint32 they multiply
            // to the products' residues mod 2^32.
            const auto word =
                static_cast<std::uint32_t>(weights[j][t * kFilterBlock]);
            std::uint32_t w[4];
            for (int i = 0; i < 4; ++i) {
              w[i] = static_cast<std::uint32_t>(static_cast<std::int32_t>(
                  static_cast<std::int8_t>((word >> (8 * i)) & 0xFFU)));
            }
            std::uint32_t* a = acc[j];
            for (std::int64_t x = 0; x < n; ++x) {
              const std::uint32_t u = code[x];
              a[x] += (u & 0xFFU) * w[0] + ((u >> 8) & 0xFFU) * w[1] +
                      ((u >> 16) & 0xFFU) * w[2] + (u >> 24) * w[3];
            }
          }
        }
        for (int j = 0; j < filters; ++j) {
          const auto corr = static_cast<std::uint32_t>(c.correction[j0 + j]);
          std::int32_t* o = planes[j] + oy * c.out_w + x0;
          for (std::int64_t x = 0; x < n; ++x) {
            const auto v = static_cast<std::int32_t>(acc[j][x] - corr);
            std::memcpy(o + x, &v, sizeof v);
          }
        }
      }
    }
  }
}

#if FLIGHTNN_X86_DISPATCH

// The code-plane words that tap 0 of the output pixels q0 .. q0 + n - 1 in
// raster order read (a narrow plane's rows are shorter than a tile); tap t
// of pixel i reads at[i][tap_off[t]]. A tail step (n < kTilePixels) repeats
// its last pixel in the spare accumulators, whose sums are not stored: one
// step shape serves every pixel count, and eight independent accumulators
// keep a one-pixel step (a linear layer) from waiting on vpdpbusd's latency.
inline void pixel_codes(const DenseConv& c, std::int64_t q0, int n,
                        const std::uint32_t** at) {
  std::int64_t oy = q0 / c.out_w;
  std::int64_t ox = q0 % c.out_w;
  for (int i = 0; i < kTilePixels; ++i) {
    at[i] = c.codes + oy * c.row_step + ox;
    if (i + 1 < n && ++ox == c.out_w) {
      ox = 0;
      ++oy;
    }
  }
}

// A filter-tile step's sums, [pixel][lane], written to the planes of the
// lanes [lo, hi) one value at a time: each plane takes a run of n pixels.
template <int kLanes>
inline void store_pixels(const std::int32_t (*sums)[kLanes], int n,
                         std::int32_t* const* planes, int lo, int hi,
                         std::int64_t q0) {
  for (int lane = lo; lane < hi; ++lane) {
    std::int32_t* o = planes[lane] + q0;
    for (int i = 0; i < n; ++i) {
      std::memcpy(o + i, &sums[i][lane], sizeof(std::int32_t));
    }
  }
}

// The lanes [lo, hi) of block b that the filters [first, end) cover.
inline std::pair<int, int> block_lanes(std::int64_t b, std::int64_t first,
                                       std::int64_t end) {
  const std::int64_t base = b * kFilterBlock;
  return {static_cast<int>(std::max(first, base) - base),
          static_cast<int>(std::min(end, base + kFilterBlock) - base)};
}

// AVX2 tier. One column tile is NR output rows x 8 columns x NF filters of
// int32 accumulators, held in registers across the whole tap walk.
// vpmaddwd forms the products from 16-bit halves: the even code bytes kept
// by a mask and the odd ones shifted down (both zero-extended), against the
// broadcast weight word split the same way in registers (sign-extended
// with vpsllw/vpsraw). Each vpmaddwd lane sums two products of at most
// 255 * 128, so nothing saturates; the accumulators wrap.
template <int NR, int NF, bool kMasked>
FLIGHTNN_INT_KERNEL __attribute__((target("avx2"))) inline void avx2_tile(
    const DenseConv& c, const std::uint32_t* base,
    const std::int32_t* const* weights, const std::int32_t* correction,
    __m256i mask, std::int32_t* const* out, std::int64_t at) {
  const __m256i low_bytes = _mm256_set1_epi32(0x00FF00FF);
  __m256i acc[NR][NF];
#pragma GCC unroll 2
  for (int r = 0; r < NR; ++r) {
#pragma GCC unroll 4
    for (int j = 0; j < NF; ++j) acc[r][j] = _mm256_setzero_si256();
  }
  for (std::int64_t t = 0; t < c.taps; ++t) {
    const std::uint32_t* p = base + c.tap_off[t];
    __m256i even[NR];
    __m256i odd[NR];
#pragma GCC unroll 2
    for (int r = 0; r < NR; ++r) {
      const auto* row = p + r * c.row_step;
      __m256i code;
      if constexpr (kMasked) {
        code = _mm256_maskload_epi32(reinterpret_cast<const int*>(row), mask);
      } else {
        code = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row));
      }
      even[r] = _mm256_and_si256(code, low_bytes);
      odd[r] = _mm256_srli_epi16(code, 8);
    }
#pragma GCC unroll 4
    for (int j = 0; j < NF; ++j) {
      const __m256i w = _mm256_set1_epi32(weights[j][t * kFilterBlock]);
      const __m256i w_even = _mm256_srai_epi16(_mm256_slli_epi16(w, 8), 8);
      const __m256i w_odd = _mm256_srai_epi16(w, 8);
#pragma GCC unroll 2
      for (int r = 0; r < NR; ++r) {
        acc[r][j] = _mm256_add_epi32(
            acc[r][j], _mm256_add_epi32(_mm256_madd_epi16(even[r], w_even),
                                        _mm256_madd_epi16(odd[r], w_odd)));
      }
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < NF; ++j) {
    const __m256i corr = _mm256_set1_epi32(correction[j]);
#pragma GCC unroll 2
    for (int r = 0; r < NR; ++r) {
      const __m256i v = _mm256_sub_epi32(acc[r][j], corr);
      std::int32_t* dst = out[j] + at + r * c.out_w;
      if constexpr (kMasked) {
        _mm256_maskstore_epi32(dst, mask, v);
      } else {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
      }
    }
  }
}

// Filters j0 .. j0 + NF - 1: row pairs, then a trailing single row; full
// 8-column tiles, then one masked tile for the out_w % 8 tail.
template <int NF>
FLIGHTNN_INT_KERNEL __attribute__((target("avx2"))) void avx2_columns(
    const DenseConv& c, std::int64_t j0) {
  const std::int32_t* weights[NF];
  std::int32_t* out[NF];
  for (int j = 0; j < NF; ++j) {
    weights[j] = filter_words(c, j0 + j);
    out[j] = plane_of(c, j0 + j);
  }
  const std::int32_t* corr = c.correction + j0;
  const std::int64_t n = c.out_w;
  const __m256i tail = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(n % 8)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  std::int64_t oy = 0;
  for (; oy + 2 <= c.out_h; oy += 2) {
    const std::uint32_t* row = c.codes + oy * c.row_step;
    std::int64_t x = 0;
    for (; x + 8 <= n; x += 8) {
      avx2_tile<2, NF, false>(c, row + x, weights, corr, tail, out, oy * n + x);
    }
    if (x < n) {
      avx2_tile<2, NF, true>(c, row + x, weights, corr, tail, out, oy * n + x);
    }
  }
  if (oy < c.out_h) {
    const std::uint32_t* row = c.codes + oy * c.row_step;
    std::int64_t x = 0;
    for (; x + 8 <= n; x += 8) {
      avx2_tile<1, NF, false>(c, row + x, weights, corr, tail, out, oy * n + x);
    }
    if (x < n) {
      avx2_tile<1, NF, true>(c, row + x, weights, corr, tail, out, oy * n + x);
    }
  }
}

FLIGHTNN_HOT FLIGHTNN_INT_KERNEL __attribute__((target("avx2"))) void
avx2_column_tile(const DenseConv& c, std::int64_t first, std::int64_t end) {
  for (std::int64_t j0 = first; j0 < end; j0 += kColumnFilters) {
    switch (std::min<std::int64_t>(kColumnFilters, end - j0)) {
      case 1: avx2_columns<1>(c, j0); break;
      case 2: avx2_columns<2>(c, j0); break;
      case 3: avx2_columns<3>(c, j0); break;
      default: avx2_columns<4>(c, j0); break;
    }
  }
}

// AVX2 filter tile: one step is kTilePixels pixels x the 8 filters of one
// block half, whose words of a tap are one ymm load. Each pixel's code
// word is broadcast and split into its even and odd bytes as in the column
// tile; the weight split is paid once per tap for all the pixels.
FLIGHTNN_INT_KERNEL __attribute__((target("avx2"))) inline void avx2_pixels(
    const DenseConv& c, const std::int32_t* half,
    const std::uint32_t* const* at, __m256i corr, std::int32_t (*sums)[8]) {
  const __m256i low_bytes = _mm256_set1_epi32(0x00FF00FF);
  __m256i acc[kTilePixels];
#pragma GCC unroll 8
  for (int i = 0; i < kTilePixels; ++i) acc[i] = _mm256_setzero_si256();
  for (std::int64_t t = 0; t < c.taps; ++t) {
    const __m256i w = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(half + t * kFilterBlock));
    const __m256i w_even = _mm256_srai_epi16(_mm256_slli_epi16(w, 8), 8);
    const __m256i w_odd = _mm256_srai_epi16(w, 8);
    const std::int64_t off = c.tap_off[t];
#pragma GCC unroll 8
    for (int i = 0; i < kTilePixels; ++i) {
      const __m256i code = _mm256_set1_epi32(static_cast<int>(at[i][off]));
      acc[i] = _mm256_add_epi32(
          acc[i],
          _mm256_add_epi32(
              _mm256_madd_epi16(_mm256_and_si256(code, low_bytes), w_even),
              _mm256_madd_epi16(_mm256_srli_epi16(code, 8), w_odd)));
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < kTilePixels; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sums[i]),
                        _mm256_sub_epi32(acc[i], corr));
  }
}

FLIGHTNN_HOT FLIGHTNN_INT_KERNEL __attribute__((target("avx2"))) void
avx2_filter_tile(const DenseConv& c, std::int64_t first, std::int64_t end) {
  const std::int64_t out_hw = c.out_h * c.out_w;
  const __m256i lane_index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::int32_t sums[kTilePixels][8];
  const std::uint32_t* at[kTilePixels];
  std::int32_t* planes[kFilterBlock] = {};
  for (std::int64_t b = first / kFilterBlock; b * kFilterBlock < end; ++b) {
    const auto [lo, hi] = block_lanes(b, first, end);
    for (int lane = lo; lane < hi; ++lane) {
      planes[lane] = plane_of(c, b * kFilterBlock + lane);
    }
    const std::int32_t* block = c.words + b * kFilterBlock * c.taps;
    for (int h = lo / 8; h * 8 < hi; ++h) {
      const int h_lo = std::max(lo - 8 * h, 0);
      const int h_hi = std::min(hi - 8 * h, 8);
      // Lanes l with h_lo <= l < h_hi.
      const __m256i live = _mm256_andnot_si256(
          _mm256_cmpgt_epi32(_mm256_set1_epi32(h_lo), lane_index),
          _mm256_cmpgt_epi32(_mm256_set1_epi32(h_hi), lane_index));
      const __m256i corr = _mm256_maskload_epi32(
          c.correction + b * kFilterBlock + 8 * h, live);
      for (std::int64_t q0 = 0; q0 < out_hw; q0 += kTilePixels) {
        const auto n = static_cast<int>(
            std::min<std::int64_t>(kTilePixels, out_hw - q0));
        pixel_codes(c, q0, n, at);
        avx2_pixels(c, block + 8 * h, at, corr, sums);
        store_pixels<8>(sums, n, planes + 8 * h, h_lo, h_hi, q0);
      }
    }
  }
}

// acc + the four u8 x s8 products of each lane of `u` and `s`, summed into
// the wrapping int32 lane: vpdpbusd. Written as asm because GCC 12 does not
// keep the builtin's accumulator in one register across a loop: it copied
// every accumulator of both VNNI tiles into a scratch zmm and back on each
// tap.
FLIGHTNN_INT_KERNEL __attribute__((target("avx512f,avx512vnni"))) inline __m512i
dpbusd(__m512i acc, __m512i u, __m512i s) {
  asm("vpdpbusd %[s], %[u], %[acc]" : [acc] "+v"(acc) : [u] "v"(u), [s] "v"(s));
  return acc;
}

// AVX-512 VNNI tier: the AVX2 column tile at 16 columns per zmm, each tap
// one vpdpbusd per accumulator (u8 codes x s8 weights, four products
// summed into the wrapping int32 lane).
template <int NR, int NF, bool kMasked>
FLIGHTNN_INT_KERNEL __attribute__((target("avx512f,avx512vnni"))) inline void
vnni_tile(const DenseConv& c, const std::uint32_t* base,
          const std::int32_t* const* weights, const std::int32_t* correction,
          __mmask16 mask, std::int32_t* const* out, std::int64_t at) {
  __m512i acc[NR][NF];
#pragma GCC unroll 2
  for (int r = 0; r < NR; ++r) {
#pragma GCC unroll 4
    for (int j = 0; j < NF; ++j) acc[r][j] = _mm512_setzero_si512();
  }
  for (std::int64_t t = 0; t < c.taps; ++t) {
    const std::uint32_t* p = base + c.tap_off[t];
    __m512i code[NR];
#pragma GCC unroll 2
    for (int r = 0; r < NR; ++r) {
      if constexpr (kMasked) {
        code[r] = _mm512_maskz_loadu_epi32(mask, p + r * c.row_step);
      } else {
        code[r] = _mm512_loadu_si512(p + r * c.row_step);
      }
    }
#pragma GCC unroll 4
    for (int j = 0; j < NF; ++j) {
      const __m512i w = _mm512_set1_epi32(weights[j][t * kFilterBlock]);
#pragma GCC unroll 2
      for (int r = 0; r < NR; ++r) {
        acc[r][j] = dpbusd(acc[r][j], code[r], w);
      }
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < NF; ++j) {
    const __m512i corr = _mm512_set1_epi32(correction[j]);
#pragma GCC unroll 2
    for (int r = 0; r < NR; ++r) {
      const __m512i v = _mm512_sub_epi32(acc[r][j], corr);
      std::int32_t* dst = out[j] + at + r * c.out_w;
      if constexpr (kMasked) {
        _mm512_mask_storeu_epi32(dst, mask, v);
      } else {
        _mm512_storeu_si512(dst, v);
      }
    }
  }
}

template <int NF>
FLIGHTNN_INT_KERNEL __attribute__((target("avx512f,avx512vnni"))) void
vnni_columns(const DenseConv& c, std::int64_t j0) {
  const std::int32_t* weights[NF];
  std::int32_t* out[NF];
  for (int j = 0; j < NF; ++j) {
    weights[j] = filter_words(c, j0 + j);
    out[j] = plane_of(c, j0 + j);
  }
  const std::int32_t* corr = c.correction + j0;
  const std::int64_t n = c.out_w;
  const auto tail = static_cast<__mmask16>((1U << (n % 16)) - 1U);
  std::int64_t oy = 0;
  for (; oy + 2 <= c.out_h; oy += 2) {
    const std::uint32_t* row = c.codes + oy * c.row_step;
    std::int64_t x = 0;
    for (; x + 16 <= n; x += 16) {
      vnni_tile<2, NF, false>(c, row + x, weights, corr, tail, out, oy * n + x);
    }
    if (x < n) {
      vnni_tile<2, NF, true>(c, row + x, weights, corr, tail, out, oy * n + x);
    }
  }
  if (oy < c.out_h) {
    const std::uint32_t* row = c.codes + oy * c.row_step;
    std::int64_t x = 0;
    for (; x + 16 <= n; x += 16) {
      vnni_tile<1, NF, false>(c, row + x, weights, corr, tail, out, oy * n + x);
    }
    if (x < n) {
      vnni_tile<1, NF, true>(c, row + x, weights, corr, tail, out, oy * n + x);
    }
  }
}

FLIGHTNN_HOT FLIGHTNN_INT_KERNEL __attribute__((target("avx512f,avx512vnni")))
void vnni_column_tile(const DenseConv& c, std::int64_t first,
                      std::int64_t end) {
  for (std::int64_t j0 = first; j0 < end; j0 += kColumnFilters) {
    switch (std::min<std::int64_t>(kColumnFilters, end - j0)) {
      case 1: vnni_columns<1>(c, j0); break;
      case 2: vnni_columns<2>(c, j0); break;
      case 3: vnni_columns<3>(c, j0); break;
      default: vnni_columns<4>(c, j0); break;
    }
  }
}

// VNNI filter tile: one step is kTilePixels pixels x the 16 filters of F
// blocks, whose words of a tap are one zmm load each; each pixel's code
// word is broadcast once into F vpdpbusd per tap. Two blocks at a time
// halve the broadcast loads per vpdpbusd: the 64->64 and 128->128 4x4
// layers ran 10-40% faster than block by block (one pinned CPU of a 4-core
// AVX-512 VNNI host).
template <int F>
FLIGHTNN_INT_KERNEL __attribute__((target("avx512f,avx512vnni"))) inline void
vnni_pixels(const DenseConv& c, const std::int32_t* block,
            const std::uint32_t* const* at, const __m512i* corr,
            std::int32_t (*sums)[kTilePixels][kFilterBlock]) {
  __m512i acc[F][kTilePixels];
#pragma GCC unroll 2
  for (int f = 0; f < F; ++f) {
#pragma GCC unroll 8
    for (int i = 0; i < kTilePixels; ++i) acc[f][i] = _mm512_setzero_si512();
  }
  const std::int64_t stride = kFilterBlock * c.taps;
  for (std::int64_t t = 0; t < c.taps; ++t) {
    __m512i w[F];
#pragma GCC unroll 2
    for (int f = 0; f < F; ++f) {
      w[f] = _mm512_loadu_si512(block + f * stride + t * kFilterBlock);
    }
    const std::int64_t off = c.tap_off[t];
#pragma GCC unroll 8
    for (int i = 0; i < kTilePixels; ++i) {
      const __m512i code = _mm512_set1_epi32(static_cast<int>(at[i][off]));
#pragma GCC unroll 2
      for (int f = 0; f < F; ++f) acc[f][i] = dpbusd(acc[f][i], code, w[f]);
    }
  }
#pragma GCC unroll 2
  for (int f = 0; f < F; ++f) {
#pragma GCC unroll 8
    for (int i = 0; i < kTilePixels; ++i) {
      _mm512_storeu_si512(sums[f][i], _mm512_sub_epi32(acc[f][i], corr[f]));
    }
  }
}

// Blocks in pairs, then a last one alone.
FLIGHTNN_HOT FLIGHTNN_INT_KERNEL __attribute__((target("avx512f,avx512vnni")))
void vnni_filter_tile(const DenseConv& c, std::int64_t first,
                      std::int64_t end) {
  const std::int64_t out_hw = c.out_h * c.out_w;
  std::int32_t sums[2][kTilePixels][kFilterBlock];
  const std::uint32_t* at[kTilePixels];
  std::int32_t* planes[2][kFilterBlock] = {};
  int lo[2] = {};
  int hi[2] = {};
  __m512i corr[2];
  for (std::int64_t b = first / kFilterBlock; b * kFilterBlock < end;) {
    const int blocks = (b + 1) * kFilterBlock < end ? 2 : 1;
    for (int f = 0; f < blocks; ++f) {
      std::tie(lo[f], hi[f]) = block_lanes(b + f, first, end);
      for (int lane = lo[f]; lane < hi[f]; ++lane) {
        planes[f][lane] = plane_of(c, (b + f) * kFilterBlock + lane);
      }
      const auto live = static_cast<__mmask16>(((1U << hi[f]) - 1U) &
                                               ~((1U << lo[f]) - 1U));
      corr[f] = _mm512_maskz_loadu_epi32(live,
                                         c.correction + (b + f) * kFilterBlock);
    }
    const std::int32_t* block = c.words + b * kFilterBlock * c.taps;
    for (std::int64_t q0 = 0; q0 < out_hw; q0 += kTilePixels) {
      const auto n = static_cast<int>(
          std::min<std::int64_t>(kTilePixels, out_hw - q0));
      pixel_codes(c, q0, n, at);
      if (blocks == 2) {
        vnni_pixels<2>(c, block, at, corr, sums);
      } else {
        vnni_pixels<1>(c, block, at, corr, sums);
      }
      for (int f = 0; f < blocks; ++f) {
        store_pixels<kFilterBlock>(sums[f], n, planes[f], lo[f], hi[f], q0);
      }
    }
    b += blocks;
  }
}

#endif  // FLIGHTNN_X86_DISPATCH

constexpr ShiftKernels kScalarKernels{KernelTier::kScalar, &dense_conv_scalar,
                                     &dense_conv_scalar};
#if FLIGHTNN_X86_DISPATCH
constexpr ShiftKernels kAvx2Kernels{KernelTier::kAvx2, &avx2_column_tile,
                                    &avx2_filter_tile};
constexpr ShiftKernels kVnniKernels{KernelTier::kVnni, &vnni_column_tile,
                                    &vnni_filter_tile};
#endif

// -1 = no override; otherwise a KernelTier value forced by tests.
std::atomic<int> g_tier_override{-1};

}  // namespace

const char* kernel_tier_name(KernelTier tier) {
  switch (tier) {
    case KernelTier::kAvx2: return "avx2";
    case KernelTier::kVnni: return "vnni";
    default: return "scalar";
  }
}

const char* conv_tile_name(ConvTile tile) {
  return tile == ConvTile::kFilter ? "filter" : "column";
}

ConvTile pick_conv_tile(KernelTier tier, std::int64_t out_h,
                        std::int64_t out_w, std::int64_t live) {
  if (tier == KernelTier::kScalar || out_h <= 0 || out_w <= 0 || live <= 0) {
    return ConvTile::kColumn;
  }
  const std::int64_t lanes = tier == KernelTier::kVnni ? 16 : 8;
  const std::int64_t column = (out_w + lanes - 1) / lanes * out_h * live;
  // A tail step fills all kTilePixels accumulators.
  const std::int64_t pixels =
      (out_h * out_w + kTilePixels - 1) / kTilePixels * kTilePixels;
  const std::int64_t filter = (live + lanes - 1) / lanes * pixels;
  const TileCost& cost =
      tier == KernelTier::kVnni ? kVnniFilterCost : kAvx2FilterCost;
  return filter * cost.num < column * cost.den ? ConvTile::kFilter
                                                : ConvTile::kColumn;
}

const ShiftKernels& shift_kernels_for(KernelTier tier) {
#if FLIGHTNN_X86_DISPATCH
  if (tier == KernelTier::kVnni && support::cpu_has_avx512_vnni()) {
    return kVnniKernels;
  }
  if (tier == KernelTier::kAvx2 && support::cpu_has_avx2()) {
    return kAvx2Kernels;
  }
#else
  (void)tier;
#endif
  return kScalarKernels;
}

KernelTier detected_kernel_tier() {
  static const KernelTier tier = [] {
    if (support::env_int("FLIGHTNN_FORCE_SCALAR").value_or(0) != 0) {
      return KernelTier::kScalar;
    }
    if (support::cpu_has_avx512_vnni()) return KernelTier::kVnni;
    return support::cpu_has_avx2() ? KernelTier::kAvx2 : KernelTier::kScalar;
  }();
  return tier;
}

const ShiftKernels& active_shift_kernels() {
  const int forced = g_tier_override.load(std::memory_order_relaxed);
  if (forced >= 0) return shift_kernels_for(static_cast<KernelTier>(forced));
  return shift_kernels_for(detected_kernel_tier());
}

void set_kernel_tier_override(int tier) {
  g_tier_override.store(tier, std::memory_order_relaxed);
}

}  // namespace flightnn::inference
