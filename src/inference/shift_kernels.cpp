#include "inference/shift_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "support/annotations.hpp"
#include "support/env.hpp"
#include "support/simd.hpp"

#if FLIGHTNN_X86_DISPATCH
#include <immintrin.h>
#endif

namespace flightnn::inference {

namespace {

// Output columns per scalar tile: the accumulator rows of a filter block
// (4 x 64 x 4 B) stay in L1 across the whole tap walk.
constexpr std::int64_t kScalarCols = 64;

// Portable scalar tier: the fallback on hosts without AVX2 and the oracle
// the vector tiers are diffed against. Tap-outer and column-inner, like the
// vector tiers: per output row, up to kScalarCols columns of each filter's
// accumulators stay on the stack across the tap walk, and the column loop,
// one tap word of four u8 x s8 products per column, is the one the compiler
// vectorizes. Unsigned arithmetic is the wrapping 32-bit sum every tier
// computes.
FLIGHTNN_HOT FLIGHTNN_INT_KERNEL void dense_conv_scalar(
    const std::uint32_t* codes, const std::int32_t* tap_off,
    const std::int32_t* weights, const std::int32_t* correction, int filters,
    const DenseConvGeom& geom, std::int32_t* const* out) {
  std::uint32_t acc[kDenseFilterBlock][kScalarCols] = {};
  for (std::int64_t oy = 0; oy < geom.out_h; ++oy) {
    const std::uint32_t* row = codes + oy * geom.row_step;
    for (std::int64_t x0 = 0; x0 < geom.out_w; x0 += kScalarCols) {
      const std::int64_t n = std::min(kScalarCols, geom.out_w - x0);
      for (int j = 0; j < filters; ++j) {
        std::fill(acc[j], acc[j] + n, std::uint32_t{0});
      }
      for (std::int64_t t = 0; t < geom.taps; ++t) {
        const std::uint32_t* c = row + tap_off[t] + x0;
        for (int j = 0; j < filters; ++j) {
          // The four weight bytes, sign-extended; as uint32 they multiply
          // to the products' residues mod 2^32.
          const auto word = static_cast<std::uint32_t>(weights[j * geom.taps + t]);
          std::uint32_t w[4];
          for (int i = 0; i < 4; ++i) {
            w[i] = static_cast<std::uint32_t>(static_cast<std::int32_t>(
                static_cast<std::int8_t>((word >> (8 * i)) & 0xFFU)));
          }
          std::uint32_t* a = acc[j];
          for (std::int64_t x = 0; x < n; ++x) {
            const std::uint32_t u = c[x];
            a[x] += (u & 0xFFU) * w[0] + ((u >> 8) & 0xFFU) * w[1] +
                    ((u >> 16) & 0xFFU) * w[2] + (u >> 24) * w[3];
          }
        }
      }
      for (int j = 0; j < filters; ++j) {
        const auto corr = static_cast<std::uint32_t>(correction[j]);
        std::int32_t* o = out[j] + oy * geom.out_w + x0;
        for (std::int64_t x = 0; x < n; ++x) {
          const auto v = static_cast<std::int32_t>(acc[j][x] - corr);
          std::memcpy(o + x, &v, sizeof v);
        }
      }
    }
  }
}

#if FLIGHTNN_X86_DISPATCH

// AVX2 tier. One tile is NR output rows x 8 columns x NF filters of int32
// accumulators, held in registers across the whole tap walk. vpmaddwd
// forms the products from 16-bit halves: the even code bytes kept by a
// mask and the odd ones shifted down (both zero-extended), against the
// broadcast weight word split the same way in registers (sign-extended
// with vpsllw/vpsraw). Each vpmaddwd lane sums two products of at most
// 255 * 128, so nothing saturates; the accumulators wrap.
template <int NR, int NF, bool kMasked>
FLIGHTNN_INT_KERNEL __attribute__((target("avx2"))) inline void avx2_tile(
    const std::uint32_t* base, const std::int32_t* tap_off,
    const std::int32_t* weights, const std::int32_t* correction,
    const DenseConvGeom& g, __m256i mask, std::int32_t* const* out,
    std::int64_t at) {
  const __m256i low_bytes = _mm256_set1_epi32(0x00FF00FF);
  __m256i acc[NR][NF];
#pragma GCC unroll 2
  for (int r = 0; r < NR; ++r) {
#pragma GCC unroll 4
    for (int j = 0; j < NF; ++j) acc[r][j] = _mm256_setzero_si256();
  }
  for (std::int64_t t = 0; t < g.taps; ++t) {
    const std::uint32_t* p = base + tap_off[t];
    __m256i even[NR];
    __m256i odd[NR];
#pragma GCC unroll 2
    for (int r = 0; r < NR; ++r) {
      const auto* row = p + r * g.row_step;
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
      const __m256i w = _mm256_set1_epi32(weights[j * g.taps + t]);
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
      std::int32_t* dst = out[j] + at + r * g.out_w;
      if constexpr (kMasked) {
        _mm256_maskstore_epi32(dst, mask, v);
      } else {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
      }
    }
  }
}

// Row pairs, then a trailing single row; full 8-column tiles, then one
// masked tile for the out_w % 8 tail.
template <int NF>
FLIGHTNN_INT_KERNEL __attribute__((target("avx2"))) void avx2_filters(
    const std::uint32_t* codes, const std::int32_t* tap_off,
    const std::int32_t* weights, const std::int32_t* correction,
    const DenseConvGeom& g, std::int32_t* const* out) {
  const std::int64_t n = g.out_w;
  const __m256i tail = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(n % 8)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  std::int64_t oy = 0;
  for (; oy + 2 <= g.out_h; oy += 2) {
    const std::uint32_t* row = codes + oy * g.row_step;
    std::int64_t x = 0;
    for (; x + 8 <= n; x += 8) {
      avx2_tile<2, NF, false>(row + x, tap_off, weights, correction, g, tail,
                              out, oy * n + x);
    }
    if (x < n) {
      avx2_tile<2, NF, true>(row + x, tap_off, weights, correction, g, tail,
                             out, oy * n + x);
    }
  }
  if (oy < g.out_h) {
    const std::uint32_t* row = codes + oy * g.row_step;
    std::int64_t x = 0;
    for (; x + 8 <= n; x += 8) {
      avx2_tile<1, NF, false>(row + x, tap_off, weights, correction, g, tail,
                              out, oy * n + x);
    }
    if (x < n) {
      avx2_tile<1, NF, true>(row + x, tap_off, weights, correction, g, tail,
                             out, oy * n + x);
    }
  }
}

FLIGHTNN_HOT FLIGHTNN_INT_KERNEL __attribute__((target("avx2"))) void
dense_conv_avx2(const std::uint32_t* codes, const std::int32_t* tap_off,
                const std::int32_t* weights, const std::int32_t* correction,
                int filters, const DenseConvGeom& geom,
                std::int32_t* const* out) {
  switch (filters) {
    case 1: avx2_filters<1>(codes, tap_off, weights, correction, geom, out); break;
    case 2: avx2_filters<2>(codes, tap_off, weights, correction, geom, out); break;
    case 3: avx2_filters<3>(codes, tap_off, weights, correction, geom, out); break;
    default: avx2_filters<4>(codes, tap_off, weights, correction, geom, out); break;
  }
}

// AVX-512 VNNI tier: the AVX2 tile at 16 columns per zmm, each tap one
// vpdpbusd per accumulator (u8 codes x s8 weights, four products summed
// into the wrapping int32 lane).
template <int NR, int NF, bool kMasked>
FLIGHTNN_INT_KERNEL __attribute__((target("avx512f,avx512vnni"))) inline void
vnni_tile(const std::uint32_t* base, const std::int32_t* tap_off,
          const std::int32_t* weights, const std::int32_t* correction,
          const DenseConvGeom& g, __mmask16 mask, std::int32_t* const* out,
          std::int64_t at) {
  __m512i acc[NR][NF];
#pragma GCC unroll 2
  for (int r = 0; r < NR; ++r) {
#pragma GCC unroll 4
    for (int j = 0; j < NF; ++j) acc[r][j] = _mm512_setzero_si512();
  }
  for (std::int64_t t = 0; t < g.taps; ++t) {
    const std::uint32_t* p = base + tap_off[t];
    __m512i code[NR];
#pragma GCC unroll 2
    for (int r = 0; r < NR; ++r) {
      if constexpr (kMasked) {
        code[r] = _mm512_maskz_loadu_epi32(mask, p + r * g.row_step);
      } else {
        code[r] = _mm512_loadu_si512(p + r * g.row_step);
      }
    }
#pragma GCC unroll 4
    for (int j = 0; j < NF; ++j) {
      const __m512i w = _mm512_set1_epi32(weights[j * g.taps + t]);
#pragma GCC unroll 2
      for (int r = 0; r < NR; ++r) {
        acc[r][j] = _mm512_dpbusd_epi32(acc[r][j], code[r], w);
      }
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < NF; ++j) {
    const __m512i corr = _mm512_set1_epi32(correction[j]);
#pragma GCC unroll 2
    for (int r = 0; r < NR; ++r) {
      const __m512i v = _mm512_sub_epi32(acc[r][j], corr);
      std::int32_t* dst = out[j] + at + r * g.out_w;
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
vnni_filters(const std::uint32_t* codes, const std::int32_t* tap_off,
             const std::int32_t* weights, const std::int32_t* correction,
             const DenseConvGeom& g, std::int32_t* const* out) {
  const std::int64_t n = g.out_w;
  const auto tail = static_cast<__mmask16>((1U << (n % 16)) - 1U);
  std::int64_t oy = 0;
  for (; oy + 2 <= g.out_h; oy += 2) {
    const std::uint32_t* row = codes + oy * g.row_step;
    std::int64_t x = 0;
    for (; x + 16 <= n; x += 16) {
      vnni_tile<2, NF, false>(row + x, tap_off, weights, correction, g, tail,
                              out, oy * n + x);
    }
    if (x < n) {
      vnni_tile<2, NF, true>(row + x, tap_off, weights, correction, g, tail,
                             out, oy * n + x);
    }
  }
  if (oy < g.out_h) {
    const std::uint32_t* row = codes + oy * g.row_step;
    std::int64_t x = 0;
    for (; x + 16 <= n; x += 16) {
      vnni_tile<1, NF, false>(row + x, tap_off, weights, correction, g, tail,
                              out, oy * n + x);
    }
    if (x < n) {
      vnni_tile<1, NF, true>(row + x, tap_off, weights, correction, g, tail,
                             out, oy * n + x);
    }
  }
}

FLIGHTNN_HOT FLIGHTNN_INT_KERNEL __attribute__((target("avx512f,avx512vnni")))
void dense_conv_vnni(const std::uint32_t* codes, const std::int32_t* tap_off,
                     const std::int32_t* weights,
                     const std::int32_t* correction, int filters,
                     const DenseConvGeom& geom, std::int32_t* const* out) {
  switch (filters) {
    case 1: vnni_filters<1>(codes, tap_off, weights, correction, geom, out); break;
    case 2: vnni_filters<2>(codes, tap_off, weights, correction, geom, out); break;
    case 3: vnni_filters<3>(codes, tap_off, weights, correction, geom, out); break;
    default: vnni_filters<4>(codes, tap_off, weights, correction, geom, out); break;
  }
}

#endif  // FLIGHTNN_X86_DISPATCH

constexpr ShiftKernels kScalarKernels{KernelTier::kScalar, &dense_conv_scalar};
#if FLIGHTNN_X86_DISPATCH
constexpr ShiftKernels kAvx2Kernels{KernelTier::kAvx2, &dense_conv_avx2};
constexpr ShiftKernels kVnniKernels{KernelTier::kVnni, &dense_conv_vnni};
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
