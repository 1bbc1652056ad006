#include "inference/shift_kernels.hpp"

#include <atomic>

#include "support/annotations.hpp"
#include "support/env.hpp"
#include "support/simd.hpp"

#if FLIGHTNN_X86_DISPATCH
#include <immintrin.h>
#endif

namespace flightnn::inference {

namespace {

// Portable scalar tier: entry-outer over the whole output plane. It is both
// the fallback on non-AVX2 hosts and the oracle the differential tests pin
// the vector tier against.
FLIGHTNN_HOT FLIGHTNN_INT_KERNEL void conv_interior_i32_scalar(
    const std::int32_t* in, const std::int32_t* off, const std::int32_t* mult,
    std::int64_t fb, std::int64_t fe, const ConvInteriorGeom& geom,
    std::int32_t* acc) {
  const std::int64_t n = geom.out_w;
  for (std::int64_t e = fb; e < fe; ++e) {
    const std::int32_t m = mult[e];
    for (std::int64_t oy = 0; oy < geom.out_h; ++oy) {
      const std::int32_t* irow = in + off[e] + oy * geom.row_step;
      std::int32_t* a = acc + oy * n;
      for (std::int64_t i = 0; i < n; ++i) a[i] += irow[i] * m;
    }
  }
}

#if FLIGHTNN_X86_DISPATCH

// AVX2 conv: output-stationary register blocking. Accumulators for a
// 2-row x 16-column macro-block (four ymm) stay in registers across the
// whole entry walk -- the scalar path streams the accumulator plane through
// L1 once per entry, so besides the 8-wide multiply-add this removes
// (entries - 1) round trips of accumulator traffic per block and walks the
// entry stream (off/mult loads, loop control) once per 32 outputs instead
// of once per output row. Column remainders step down to one ymm, then a
// masked ymm covering any 1..7 tail (maskload never touches disabled
// lanes, so the kernel reads no input or accumulator bytes the scalar tier
// would not). All regroupings are exact-integer, hence bit-identical
// (overflow excluded by the caller's narrow bound; see the header).
FLIGHTNN_HOT FLIGHTNN_INT_KERNEL
__attribute__((target("avx2"))) void conv_interior_i32_avx2(
    const std::int32_t* in, const std::int32_t* off, const std::int32_t* mult,
    std::int64_t fb, std::int64_t fe, const ConvInteriorGeom& geom,
    std::int32_t* acc) {
  const std::int64_t n = geom.out_w;
  const std::int64_t step = geom.row_step;
  // Lanes [0..w) enabled; the tail mask for n % 8 columns.
  const __m256i tail_mask =
      n % 8 == 0
          ? _mm256_setzero_si256()
          : _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n % 8)),
                               _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  std::int64_t oy = 0;
  for (; oy + 2 <= geom.out_h; oy += 2) {
    const std::int32_t* base = in + oy * step;
    std::int32_t* a0 = acc + oy * n;
    std::int32_t* a1 = a0 + n;
    std::int64_t x = 0;
    for (; x + 16 <= n; x += 16) {
      __m256i v00 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + x));
      __m256i v01 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + x + 8));
      __m256i v10 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + x));
      __m256i v11 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + x + 8));
      for (std::int64_t e = fb; e < fe; ++e) {
        const std::int32_t* p = base + off[e] + x;
        const __m256i m = _mm256_set1_epi32(mult[e]);
        v00 = _mm256_add_epi32(
            v00, _mm256_mullo_epi32(
                     _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
                     m));
        v01 = _mm256_add_epi32(
            v01,
            _mm256_mullo_epi32(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8)),
                m));
        v10 = _mm256_add_epi32(
            v10,
            _mm256_mullo_epi32(_mm256_loadu_si256(
                                   reinterpret_cast<const __m256i*>(p + step)),
                               m));
        v11 = _mm256_add_epi32(
            v11, _mm256_mullo_epi32(
                     _mm256_loadu_si256(
                         reinterpret_cast<const __m256i*>(p + step + 8)),
                     m));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a0 + x), v00);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a0 + x + 8), v01);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a1 + x), v10);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a1 + x + 8), v11);
    }
    if (x + 8 <= n) {
      __m256i v0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + x));
      __m256i v1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + x));
      for (std::int64_t e = fb; e < fe; ++e) {
        const std::int32_t* p = base + off[e] + x;
        const __m256i m = _mm256_set1_epi32(mult[e]);
        v0 = _mm256_add_epi32(
            v0, _mm256_mullo_epi32(
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
                    m));
        v1 = _mm256_add_epi32(
            v1,
            _mm256_mullo_epi32(_mm256_loadu_si256(
                                   reinterpret_cast<const __m256i*>(p + step)),
                               m));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a0 + x), v0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a1 + x), v1);
      x += 8;
    }
    if (x < n) {
      __m256i v0 = _mm256_maskload_epi32(a0 + x, tail_mask);
      __m256i v1 = _mm256_maskload_epi32(a1 + x, tail_mask);
      for (std::int64_t e = fb; e < fe; ++e) {
        const std::int32_t* p = base + off[e] + x;
        const __m256i m = _mm256_set1_epi32(mult[e]);
        v0 = _mm256_add_epi32(
            v0, _mm256_mullo_epi32(_mm256_maskload_epi32(p, tail_mask), m));
        v1 = _mm256_add_epi32(
            v1, _mm256_mullo_epi32(_mm256_maskload_epi32(p + step, tail_mask),
                                   m));
      }
      _mm256_maskstore_epi32(a0 + x, tail_mask, v0);
      _mm256_maskstore_epi32(a1 + x, tail_mask, v1);
    }
  }
  if (oy < geom.out_h) {
    const std::int32_t* base = in + oy * step;
    std::int32_t* a = acc + oy * n;
    std::int64_t x = 0;
    for (; x + 8 <= n; x += 8) {
      __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + x));
      for (std::int64_t e = fb; e < fe; ++e) {
        v0 = _mm256_add_epi32(
            v0, _mm256_mullo_epi32(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(base + off[e] + x)),
                    _mm256_set1_epi32(mult[e])));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + x), v0);
    }
    if (x < n) {
      __m256i v0 = _mm256_maskload_epi32(a + x, tail_mask);
      for (std::int64_t e = fb; e < fe; ++e) {
        v0 = _mm256_add_epi32(
            v0, _mm256_mullo_epi32(
                    _mm256_maskload_epi32(base + off[e] + x, tail_mask),
                    _mm256_set1_epi32(mult[e])));
      }
      _mm256_maskstore_epi32(a + x, tail_mask, v0);
    }
  }
}

#endif  // FLIGHTNN_X86_DISPATCH

constexpr ShiftKernels kScalarKernels{KernelTier::kScalar,
                                      &conv_interior_i32_scalar};
#if FLIGHTNN_X86_DISPATCH
constexpr ShiftKernels kAvx2Kernels{KernelTier::kAvx2, &conv_interior_i32_avx2};
#endif

// -1 = no override; otherwise a KernelTier value forced by tests.
std::atomic<int> g_tier_override{-1};

}  // namespace

const char* kernel_tier_name(KernelTier tier) {
  return tier == KernelTier::kAvx2 ? "avx2" : "scalar";
}

const ShiftKernels& shift_kernels_for(KernelTier tier) {
#if FLIGHTNN_X86_DISPATCH
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
