#pragma once

// Function multiversioning for hot pointwise loops.
//
// The project builds one portable binary (baseline SSE2; see
// FLIGHTNN_NATIVE_ARCH in the top-level CMakeLists). For straight-line
// elementwise kernels we do not hand-write intrinsics the way the GEMM
// microkernel does -- the autovectorizer produces good code as soon as it
// is allowed to target AVX2. FLIGHTNN_SIMD_CLONES compiles the annotated
// function twice (baseline + avx2) and installs a glibc ifunc resolver
// that picks the widest version the CPU supports at load time.
//
// Keep annotated functions small, leaf-like, and free of observable
// side effects beyond their output arrays: the two clones may contract
// multiplies and adds differently (FMA), so results must only be consumed
// where that tolerance is acceptable. Reductions that must be bit-stable
// across machines (e.g. the regularizer's double accumulations) must NOT
// be cloned.
//
// Under ThreadSanitizer the clones are dropped (baseline code only): the
// ifunc resolvers run during relocation, before the TSan runtime is up, and
// an instrumented resolver crashes the binary at startup. The explicit
// dispatch tables (FLIGHTNN_X86_DISPATCH) resolve at run time and stay.
#if defined(__SANITIZE_THREAD__)
#define FLIGHTNN_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FLIGHTNN_TSAN_BUILD 1
#endif
#endif

#if defined(__x86_64__) && defined(__GNUC__)
#if defined(FLIGHTNN_TSAN_BUILD)
#define FLIGHTNN_SIMD_CLONES
#else
#define FLIGHTNN_SIMD_CLONES __attribute__((target_clones("default", "avx2")))
#endif
#define FLIGHTNN_X86_DISPATCH 1
#else
#define FLIGHTNN_SIMD_CLONES
#define FLIGHTNN_X86_DISPATCH 0
#endif

namespace flightnn::support {

// CPU capability probes backing both the explicit kernel dispatch tables
// (inference/shift_kernels, core/gemm) and the bench metadata every
// BENCH_*.json records. Same mechanism the ifunc resolvers behind
// FLIGHTNN_SIMD_CLONES use, exposed as callable predicates so dispatch
// decisions are observable and overridable (FLIGHTNN_FORCE_SCALAR).
inline bool cpu_has_avx2() {
#if FLIGHTNN_X86_DISPATCH
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// AVX-512 VNNI (vpdpbusd on zmm): the dense conv kernels' widest tier.
// libgcc sets the bit only when the OS also saves the AVX-512 state.
inline bool cpu_has_avx512_vnni() {
#if FLIGHTNN_X86_DISPATCH
  return __builtin_cpu_supports("avx512vnni") != 0;
#else
  return false;
#endif
}

inline bool cpu_has_fma() {
#if FLIGHTNN_X86_DISPATCH
  return __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

}  // namespace flightnn::support
