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

// 2^e as a float for e in the normal exponent range, built directly from
// the IEEE-754 bit layout. ldexp is a libm call; this is one shift. The
// quantizers call it (via round_to_pow2 below) once per weight per residual
// level every training step, so it must inline.
inline float exp2_int(int e) {
  FLIGHTNN_DCHECK(e >= -126 && e <= 127, "exp2_int: exponent ", e,
                  " outside the normal float range");
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
// term; use term.value() for the float realization.
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

// Elementwise R(x) over a tensor (float realization).
tensor::Tensor round_to_pow2(const tensor::Tensor& x, const Pow2Config& config);

// True if every element of `x` is exactly representable as sign * 2^e with
// e in [config.e_min, config.e_max] or exact zero.
bool is_pow2_representable(const tensor::Tensor& x, const Pow2Config& config);

// True if every element is a sum of at most k representable terms. Verifies
// LightNN-k / FLightNN quantizer outputs in tests.
bool is_sum_of_pow2(const tensor::Tensor& x, int k, const Pow2Config& config);

}  // namespace flightnn::quant
