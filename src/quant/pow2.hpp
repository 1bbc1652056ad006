#pragma once

// Power-of-two arithmetic primitives shared by every quantizer in the
// library. The paper's R(x) = sign(x) * 2^[log2(|x|)] (Sec. 3) rounds a value
// to the nearest power of two in the *log* domain; hardware then realizes a
// multiply by R(x) as a barrel shift.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "support/check.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::quant {

// Exponent budget for a power-of-two coded weight term. A 4-bit term
// (1 sign bit + 3 magnitude bits) encodes exact zero plus sign * 2^e for
// 7 exponent values -- matching the paper's "L-1 4W" / "L-2 8W" encodings
// that eval::model_storage_bytes counts.
struct Pow2Config {
  int e_min = -6;
  int e_max = 0;
  // Magnitudes below 2^(e_min - 1) round to exact zero instead of being
  // clamped up to 2^e_min; keeps tiny residuals from gaining energy.
  bool flush_to_zero = true;

  [[nodiscard]] int exponent_levels() const { return e_max - e_min + 1; }
};

// The exponents whose power of two is a normal float: the window every
// quantizer accepts (check_exponent_window), which a plan's must also lie
// in (inference/shift_plan.hpp).
inline constexpr int kMinPow2Exponent = -126;
inline constexpr int kMaxPow2Exponent = 127;

// Throws CheckFailure, naming `who`, unless kMinPow2Exponent <= e_min <=
// e_max <= kMaxPow2Exponent. Every quantizer makes it where it takes its
// config, so exp2_int's range holds for every exponent R(x) can return.
void check_exponent_window(const Pow2Config& config, const char* who);

// Throws CheckFailure, naming `who`, when k >= 2 terms of 2^e_max overflow a
// float (k * 2^e_max > FLT_MAX): a quantizer that sums k levels of the peel
// would then turn a large weight into +-inf. Every k-term quantizer makes it
// beside check_exponent_window.
void check_term_sum(int k, const Pow2Config& config, const char* who);

// 2^e as a float for e in the normal exponent range, built directly from
// the IEEE-754 bit layout. ldexp is a libm call; this is one shift.
inline float exp2_int(int e) {
  FLIGHTNN_DCHECK(e >= kMinPow2Exponent && e <= kMaxPow2Exponent,
                  "exp2_int: exponent ", e, " outside the normal float range");
  return std::bit_cast<float>(static_cast<std::uint32_t>(e + 127) << 23);
}

// One shift term: value = sign * 2^exponent, or exact zero when sign == 0.
struct Pow2Term {
  std::int8_t sign = 0;     // -1, 0, +1
  std::int8_t exponent = 0; // valid only when sign != 0

  [[nodiscard]] float value() const {
    FLIGHTNN_DCHECK(sign >= -1 && sign <= 1, "Pow2Term: sign ",
                    static_cast<int>(sign), " not in {-1, 0, 1}");
    if (sign == 0) return 0.0F;
    return static_cast<float>(sign) * exp2_int(exponent);
  }
};

// Round a scalar to the nearest power of two under `config`. Returns the
// term; use term.value() for the float realization. This is the
// specification of R(x): every quantizer runs peel_level below, which the
// tests compare against it bit for bit.
//
// "Nearest in the log domain" (round(log2|x|)) is computed from the float
// bit pattern: split |x| = 2^e * m with m in [1, 2) and bump e when
// log2(m) > 1/2, i.e. when m > sqrt(2). sqrt(2) is irrational, hence never
// a float, so the strict compare against its nearest float realizes the
// infinitely precise cutoff exactly -- unlike the former libm
// lround(log2f(.)) formulation, which was off by the log2f rounding error
// for mantissas adjacent to the cutoff (and ~50ns slower per call).
inline Pow2Term round_to_pow2(float x, const Pow2Config& config) {
  FLIGHTNN_DCHECK(config.e_min <= config.e_max, "Pow2Config: e_min ",
                  config.e_min, " > e_max ", config.e_max);
  Pow2Term term;
  if (x == 0.0F || std::isnan(x)) return term;
  const float mag = std::fabs(x);
  if (config.flush_to_zero && mag < 0.5F * exp2_int(config.e_min)) {
    return term;  // exact zero
  }
  const auto bits = std::bit_cast<std::uint32_t>(mag);
  int e = static_cast<int>(bits >> 23) - 127;
  const float mantissa =
      std::bit_cast<float>((bits & 0x007FFFFFU) | 0x3F800000U);
  constexpr float kSqrt2 = 1.41421356237309504880F;
  if (mantissa > kSqrt2) ++e;
  // Subnormal |x| decodes as e = -127 with a garbage mantissa; both land
  // below any sane e_min and the clamp absorbs them, matching the old
  // log-domain result. Infinities decode as e = 128 and clamp to e_max.
  e = std::clamp(e, config.e_min, config.e_max);
  term.sign = static_cast<std::int8_t>(x > 0.0F ? 1 : -1);
  term.exponent = static_cast<std::int8_t>(e);
  return term;
}

// The term peel_level wrote as a float: the Pow2Term whose value() it is
// (sign 0 and exponent 0 for +0, as round_to_pow2 gives).
inline Pow2Term pow2_term_of(float term) {
  const auto bits = std::bit_cast<std::uint32_t>(term);
  Pow2Term out;
  if ((bits & 0x7FFFFFFFU) == 0) return out;
  out.sign = static_cast<std::int8_t>((bits >> 31) != 0 ? -1 : 1);
  out.exponent =
      static_cast<std::int8_t>(static_cast<int>(bits >> 23 & 0xFFU) - 127);
  return out;
}

// One level of the greedy residual peel over n elements, the step every
// quantizer repeats (LightNN's Q_k, FLightNN's levels, the Fig. 3
// decomposition): term = round_to_pow2(residual[i], config).value(), then
// acc[i] += term and, where the term is not zero, residual[i] -= term.
// Bit-identical to that scalar form for every float, NaN and +-inf
// included (a NaN's term is +0). A zero term is +0, so a level that finds
// nothing to peel changes no residual and no sum but a -0 one. It reads
// the term off the IEEE-754 bits with no branch and no multiply, so it
// vectorizes in every FLIGHTNN_SIMD_CLONES clone and no FMA contraction
// can change it (DESIGN.md §10). The caller checks the window
// (check_exponent_window).
void peel_level(float* residual, float* acc, std::int64_t n,
                const Pow2Config& config);

// Elementwise R(x) over a tensor (float realization).
tensor::Tensor round_to_pow2(const tensor::Tensor& x, const Pow2Config& config);

// True if every element of `x` is exactly representable as sign * 2^e with
// e in [config.e_min, config.e_max] or exact zero.
bool is_pow2_representable(const tensor::Tensor& x, const Pow2Config& config);

// True if every element is a sum of at most k representable terms: its
// greedy peel reaches zero within k levels and its terms sum back to it.
// Verifies LightNN-k / FLightNN quantizer outputs in tests.
bool is_sum_of_pow2(const tensor::Tensor& x, int k, const Pow2Config& config);

}  // namespace flightnn::quant
