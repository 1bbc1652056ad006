#include "core/gemm.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define FLIGHTNN_GEMM_X86_DISPATCH 1
#endif

#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "support/annotations.hpp"
#include "support/check.hpp"
#include "tensor/buffer_pool.hpp"

namespace flightnn::core {

namespace {

// Blocking parameters. The register tile (mr x nr) is picked at runtime --
// see active_kernel() -- because the portable baseline build carries no
// -march flags: a 4 x 8 scalar tile that the autovectorizer turns into SSE2
// code, or a 6 x 16 AVX2+FMA tile compiled with a per-function target
// attribute and selected via __builtin_cpu_supports, so one binary runs
// everywhere and still uses the wide units where they exist. kKc keeps one
// packed A micro-panel column and one packed B block inside L1/L2; kMc is
// the row count of one parallel task, sized so its packed A panel
// (kMc x kKc floats = 64 KiB) fits alongside the B block in L2.
constexpr std::int64_t kMrScalar = 4;
constexpr std::int64_t kNrScalar = 8;
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kMc = 64;
// Columns per parallel task. Tasks tile C in kMc x kNc blocks so GEMMs with
// few rows (weight gradients: m = out_channels) still expose parallelism
// along N; the A-panel repack this duplicates per column block is ~1/(2*kNc)
// of the tile's FLOPs, i.e. noise. Must stay a multiple of every kernel's
// nr so B panel indices stay aligned to task columns.
constexpr std::int64_t kNc = 64;

// Rough scalar throughput used for the parallel_for cost hint: one
// multiply-add every ~0.1 ns once vectorized. Only the order of magnitude
// matters (it separates microsecond GEMMs from millisecond ones).
constexpr double kNsPerFlop = 0.05;

// Pack the [mc x kc] block of A starting at (m0, p0) into mr-row
// micro-panels: ap[ip][kk][r] = a(m0 + ip*mr + r, p0 + kk), zero-padded in
// r past the edge so the microkernel never branches on partial tiles.
FLIGHTNN_HOT void pack_a(const float* a, std::int64_t a_rs, std::int64_t a_cs,
            std::int64_t m0, std::int64_t mc, std::int64_t p0,
            std::int64_t kc, float* ap, std::int64_t mr_tile) {
  const std::int64_t panels = (mc + mr_tile - 1) / mr_tile;
  for (std::int64_t ip = 0; ip < panels; ++ip) {
    const std::int64_t row0 = m0 + ip * mr_tile;
    const std::int64_t mr = std::min(mr_tile, m0 + mc - row0);
    float* dst = ap + ip * kc * mr_tile;
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* src = a + row0 * a_rs + (p0 + kk) * a_cs;
      std::int64_t r = 0;
      for (; r < mr; ++r) dst[kk * mr_tile + r] = src[r * a_rs];
      for (; r < mr_tile; ++r) dst[kk * mr_tile + r] = 0.0F;
    }
  }
}

// Pack the [kc x n] block of B starting at row p0 into nr-column
// micro-panels: bp[jp][kk][j] = b(p0 + kk, jp*nr + j), zero-padded in j.
FLIGHTNN_HOT void pack_b(const float* b, std::int64_t b_rs, std::int64_t b_cs,
            std::int64_t p0, std::int64_t kc, std::int64_t n, float* bp,
            std::int64_t nr_tile) {
  const std::int64_t panels = (n + nr_tile - 1) / nr_tile;
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    const std::int64_t col0 = jp * nr_tile;
    const std::int64_t nr = std::min(nr_tile, n - col0);
    float* dst = bp + jp * kc * nr_tile;
    if (b_cs == 1 && nr == nr_tile) {
      // Contiguous source rows: straight memcpy per kk.
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        std::memcpy(dst + kk * nr_tile, b + (p0 + kk) * b_rs + col0,
                    static_cast<std::size_t>(nr_tile) * sizeof(float));
      }
      continue;
    }
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* src = b + (p0 + kk) * b_rs + col0 * b_cs;
      std::int64_t j = 0;
      for (; j < nr; ++j) dst[kk * nr_tile + j] = src[j * b_cs];
      for (; j < nr_tile; ++j) dst[kk * nr_tile + j] = 0.0F;
    }
  }
}

// One mr x nr register tile over a packed KC block: fixed-bound loops over
// the full tile (padding made the panels rectangular), partial-edge handling
// deferred to the store. Accumulates into C, so the caller zeroes C rows
// once before the first KC block when not accumulating.
FLIGHTNN_HOT void micro_tile_scalar(const float* ap, const float* bp,
                                    std::int64_t kc,
                       float* c, std::int64_t ldc, std::int64_t mr,
                       std::int64_t nr) {
  float acc[kMrScalar * kNrScalar] = {};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* a_col = ap + kk * kMrScalar;
    const float* b_row = bp + kk * kNrScalar;
    for (std::int64_t r = 0; r < kMrScalar; ++r) {
      const float a_val = a_col[r];
      for (std::int64_t j = 0; j < kNrScalar; ++j) {
        acc[r * kNrScalar + j] += a_val * b_row[j];
      }
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    float* c_row = c + r * ldc;
    for (std::int64_t j = 0; j < nr; ++j) c_row[j] += acc[r * kNrScalar + j];
  }
}

#ifdef FLIGHTNN_GEMM_X86_DISPATCH

// 6 x 16 AVX2+FMA tile: 12 YMM accumulators, two B vectors and one A
// broadcast live per k step (15 of 16 registers). Compiled with a target
// attribute so the portable build still links it; only ever called after
// __builtin_cpu_supports confirms avx2+fma.
__attribute__((target("avx2,fma"))) FLIGHTNN_HOT void micro_tile_avx2(
    const float* ap, const float* bp, std::int64_t kc, float* c,
    std::int64_t ldc, std::int64_t mr, std::int64_t nr) {
  constexpr std::int64_t kMrTile = 6;
  constexpr std::int64_t kNrTile = 16;
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
  __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
  __m256 acc40 = _mm256_setzero_ps(), acc41 = _mm256_setzero_ps();
  __m256 acc50 = _mm256_setzero_ps(), acc51 = _mm256_setzero_ps();
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNrTile);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNrTile + 8);
    const float* a_col = ap + kk * kMrTile;
    __m256 av = _mm256_set1_ps(a_col[0]);
    acc00 = _mm256_fmadd_ps(av, b0, acc00);
    acc01 = _mm256_fmadd_ps(av, b1, acc01);
    av = _mm256_set1_ps(a_col[1]);
    acc10 = _mm256_fmadd_ps(av, b0, acc10);
    acc11 = _mm256_fmadd_ps(av, b1, acc11);
    av = _mm256_set1_ps(a_col[2]);
    acc20 = _mm256_fmadd_ps(av, b0, acc20);
    acc21 = _mm256_fmadd_ps(av, b1, acc21);
    av = _mm256_set1_ps(a_col[3]);
    acc30 = _mm256_fmadd_ps(av, b0, acc30);
    acc31 = _mm256_fmadd_ps(av, b1, acc31);
    av = _mm256_set1_ps(a_col[4]);
    acc40 = _mm256_fmadd_ps(av, b0, acc40);
    acc41 = _mm256_fmadd_ps(av, b1, acc41);
    av = _mm256_set1_ps(a_col[5]);
    acc50 = _mm256_fmadd_ps(av, b0, acc50);
    acc51 = _mm256_fmadd_ps(av, b1, acc51);
  }
  if (mr == kMrTile && nr == kNrTile) {
    const __m256 rows[kMrTile][2] = {{acc00, acc01}, {acc10, acc11},
                                     {acc20, acc21}, {acc30, acc31},
                                     {acc40, acc41}, {acc50, acc51}};
    for (std::int64_t r = 0; r < kMrTile; ++r) {
      float* c_row = c + r * ldc;
      _mm256_storeu_ps(c_row,
                       _mm256_add_ps(_mm256_loadu_ps(c_row), rows[r][0]));
      _mm256_storeu_ps(c_row + 8,
                       _mm256_add_ps(_mm256_loadu_ps(c_row + 8), rows[r][1]));
    }
    return;
  }
  alignas(32) float acc[kMrTile * kNrTile];
  _mm256_store_ps(acc + 0 * kNrTile, acc00);
  _mm256_store_ps(acc + 0 * kNrTile + 8, acc01);
  _mm256_store_ps(acc + 1 * kNrTile, acc10);
  _mm256_store_ps(acc + 1 * kNrTile + 8, acc11);
  _mm256_store_ps(acc + 2 * kNrTile, acc20);
  _mm256_store_ps(acc + 2 * kNrTile + 8, acc21);
  _mm256_store_ps(acc + 3 * kNrTile, acc30);
  _mm256_store_ps(acc + 3 * kNrTile + 8, acc31);
  _mm256_store_ps(acc + 4 * kNrTile, acc40);
  _mm256_store_ps(acc + 4 * kNrTile + 8, acc41);
  _mm256_store_ps(acc + 5 * kNrTile, acc50);
  _mm256_store_ps(acc + 5 * kNrTile + 8, acc51);
  for (std::int64_t r = 0; r < mr; ++r) {
    float* c_row = c + r * ldc;
    for (std::int64_t j = 0; j < nr; ++j) c_row[j] += acc[r * kNrTile + j];
  }
}

#endif  // FLIGHTNN_GEMM_X86_DISPATCH

using MicroFn = void (*)(const float*, const float*, std::int64_t, float*,
                         std::int64_t, std::int64_t, std::int64_t);

struct Kernel {
  std::int64_t mr;
  std::int64_t nr;
  MicroFn run;
};

// Resolved once per process. The choice affects only the pack layout and
// tile shape, never which element sums what -- each C element's accumulation
// order stays (KC blocks outer, packed K inner), so results remain
// bit-identical across thread counts for whichever kernel is active.
const Kernel& active_kernel() {
  static const Kernel kernel = [] {
#ifdef FLIGHTNN_GEMM_X86_DISPATCH
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return Kernel{6, 16, micro_tile_avx2};
    }
#endif
    return Kernel{kMrScalar, kNrScalar, micro_tile_scalar};
  }();
  return kernel;
}

}  // namespace

FLIGHTNN_HOT void gemm_strided(const float* a, std::int64_t a_rs,
                               std::int64_t a_cs, const float* b,
                               std::int64_t b_rs, std::int64_t b_cs, float* c,
                               std::int64_t m, std::int64_t k, std::int64_t n,
                               bool accumulate) {
  FLIGHTNN_DCHECK(m >= 0 && k >= 0 && n >= 0,
                  "gemm: negative dimensions m=", m, " k=", k, " n=", n);
  FLIGHTNN_DCHECK(a != nullptr && b != nullptr && c != nullptr,
                  "gemm: null operand");
  if (m == 0 || n == 0) return;
  if (!accumulate && k == 0) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
    return;
  }

  const Kernel& kern = active_kernel();
  const std::int64_t mr_tile = kern.mr;
  const std::int64_t nr_tile = kern.nr;
  static_assert(kNc % 16 == 0 && kNc % kNrScalar == 0,
                "task columns must align to B panels");
  const std::int64_t n_panels = (n + nr_tile - 1) / nr_tile;
  const std::int64_t m_tasks = (m + kMc - 1) / kMc;
  const std::int64_t n_tasks = (n + kNc - 1) / kNc;
  // Shared packed-B block, reused across KC blocks. Pool-backed so repeat
  // training steps hit the free list instead of the allocator.
  std::vector<float> bp = tensor::pool::acquire(
      static_cast<std::size_t>(n_panels * nr_tile * std::min(kKc, k)));

  for (std::int64_t p0 = 0; p0 < k; p0 += kKc) {
    const std::int64_t kc = std::min(kKc, k - p0);
    pack_b(b, b_rs, b_cs, p0, kc, n, bp.data(), nr_tile);
    const bool zero_c = (p0 == 0) && !accumulate;
    const double task_ns = 2.0 * static_cast<double>(std::min(kMc, m)) *
                           static_cast<double>(kc) *
                           static_cast<double>(std::min(kNc, n)) * kNsPerFlop;
    // Parallel over kMc x kNc tiles of C: each task owns its C block
    // outright, so the partition never changes any element's accumulation
    // order -- results are bit-identical at every thread count.
    runtime::parallel_for(
        0, m_tasks * n_tasks, 1, runtime::CostHint{task_ns},
        [&](std::int64_t t_begin, std::int64_t t_end) {
          for (std::int64_t t = t_begin; t < t_end; ++t) {
            const std::int64_t m0 = (t / n_tasks) * kMc;
            const std::int64_t mc = std::min(kMc, m - m0);
            const std::int64_t c0 = (t % n_tasks) * kNc;
            const std::int64_t nc = std::min(kNc, n - c0);
            const std::int64_t a_panels = (mc + mr_tile - 1) / mr_tile;
            const std::int64_t b_panel0 = c0 / nr_tile;
            const std::int64_t b_panels = (nc + nr_tile - 1) / nr_tile;
            float* ap = runtime::ScratchArena::current().fetch<float>(
                runtime::Scratch::kGemmPackA,
                static_cast<std::size_t>(a_panels * mr_tile * kc));
            pack_a(a, a_rs, a_cs, m0, mc, p0, kc, ap, mr_tile);
            if (zero_c) {
              for (std::int64_t r = 0; r < mc; ++r) {
                std::memset(c + (m0 + r) * n + c0, 0,
                            static_cast<std::size_t>(nc) * sizeof(float));
              }
            }
            for (std::int64_t ip = 0; ip < a_panels; ++ip) {
              const std::int64_t row0 = m0 + ip * mr_tile;
              // Clamp to the task's row range: when kMc is not a multiple
              // of mr the last panel is zero-padded past it, and the rows
              // beyond belong to the next task.
              const std::int64_t mr = std::min(mr_tile, m0 + mc - row0);
              for (std::int64_t jp = 0; jp < b_panels; ++jp) {
                const std::int64_t col0 = (b_panel0 + jp) * nr_tile;
                const std::int64_t nr = std::min(nr_tile, c0 + nc - col0);
                kern.run(ap + ip * kc * mr_tile,
                         bp.data() + (b_panel0 + jp) * kc * nr_tile, kc,
                         c + row0 * n + col0, n, mr, nr);
              }
            }
          }
        });
  }
  tensor::pool::release(std::move(bp));
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_strided(a, /*a_rs=*/k, /*a_cs=*/1, b, /*b_rs=*/n, /*b_cs=*/1, c, m, k,
               n, accumulate);
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  // a is [k x m] row-major; A^T(i, p) = a[p * m + i].
  gemm_strided(a, /*a_rs=*/1, /*a_cs=*/m, b, /*b_rs=*/n, /*b_cs=*/1, c, m, k,
               n, accumulate);
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  // b is [n x k] row-major; B^T(p, j) = b[j * k + p].
  gemm_strided(a, /*a_rs=*/k, /*a_cs=*/1, b, /*b_rs=*/1, /*b_cs=*/k, c, m, k,
               n, accumulate);
}

}  // namespace flightnn::core
