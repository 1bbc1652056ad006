#pragma once

// Uniform (fixed-point) quantization, the paper's "FP_xWyA" baseline:
// symmetric signed integers with a per-tensor power-of-two scale so that the
// hardware realization stays multiplier+shift only. Used for the 4-bit
// weight baseline and for 8-bit activation quantization in all quantized
// models (Sec. 5.1).
//
// This is the project's one power-of-two fixed-point quantizer: the weight
// transform below, nn::ActivationQuant (train and eval) and the compiled
// network's quant ops and shift-op inputs (inference::fake_quantize,
// quantize_image_into) all run it, so a model trains with the quantizer its
// compiled network runs. It is one exponent rule (scale_exponent), one loop
// writing floats and the training mask (fake_quantize_values), one loop
// writing int8 codes (quantize_codes) and one exact q * 2^e (scale_code).
//
// Exactness: at the exponent e it is given, every loop returns the real
// clamp(round(x * 2^-e), +-q_max) * 2^e rounded once to float. A product
// with a power of two is exact wherever the result is a normal float, so
// where 2^e and 2^-e are both normal (normal_scale) the loops run in float;
// elsewhere -- an abs-max below about 2^-120, or past 2^126 at 2 bits --
// they form each product in double and round once, one branch per call:
// 2^-149 at 8 bits is code 64 at 2^-155 and comes back as 2^-149, and
// {FLT_MAX, 1} at 2 bits comes back as {+inf, 0}.

#include <cmath>
#include <cstdint>

#include "quant/transform.hpp"

namespace flightnn::quant {

struct FixedPointConfig {
  int bits = 4;  // total bits including sign

  // Integer range is symmetric: [-(2^(bits-1) - 1), +(2^(bits-1) - 1)].
  [[nodiscard]] int q_max() const { return (1 << (bits - 1)) - 1; }
};

// The power-of-two scale exponent of an abs-max >= 0 at `q_max` levels:
// ceil(log2(abs_max / q_max)), the quotient rounded to float as the
// quantizers have always taken it where it is a normal float, and 0 for an
// abs-max of 0. A quotient below FLT_MIN (an abs-max below about
// q_max * 2^-126) is taken in double instead: a subnormal float quotient
// keeps few bits and could round down to a power of two, and one that
// underflows to zero has no log2. The double quotient lies within a relative
// 2^-39 of a power of two only when it is one, so there the result is the
// smallest e with abs_max <= q_max * 2^e: 2^-140 at 8 bits gets e = -146
// and code 64. Exponents from a normal quotient (e >= -126) are unchanged.
// Throws CheckFailure for a NaN or infinite abs-max.
[[nodiscard]] int scale_exponent(float abs_max, std::int64_t q_max);

// 2^e and 2^-e are both normal floats: the loops below run in float.
[[nodiscard]] constexpr bool normal_scale(int e) {
  return e >= -126 && e <= 126;
}

// q * 2^e rounded once to float, the product being exact in double: exact
// wherever the result is a normal float, else the nearest subnormal or +-inf.
// For a normal 2^e and an integer float q it is float(q) * 2^e, bit for bit.
[[nodiscard]] inline float scale_code(double q, int e) {
  return static_cast<float>(std::ldexp(q, e));
}

// out[i] = clamp(q_i, +-q_max) * 2^e, q_i being in[i] * 2^-e rounded to the
// nearest integer, ties to even (+0 for code 0); and, when `mask` is not
// null, mask[i] = |in[i] * 2^-e| > q_max: the saturated elements, which get
// no gradient. `out` may be `in`. Inputs finite, q_max in [1, 2^15 - 1].
void fake_quantize_values(const float* in, float* out, std::uint8_t* mask,
                          std::int64_t n, int e, std::int32_t q_max);

// codes[i] = clamp(q_i, +-q_max), q_i as above. `e` must cover the inputs,
// as scale_exponent of their abs-max does (past 2^31 the int conversion is
// undefined); q_max in [1, 127], so every code is an int8.
void quantize_codes(const float* in, std::int8_t* codes, std::int64_t n, int e,
                    std::int32_t q_max);

// Fixed-point weights as a WeightTransform (STE backward), at the
// scale_exponent of each tensor's abs-max.
class FixedPointTransform final : public WeightTransform {
 public:
  explicit FixedPointTransform(FixedPointConfig config = {});

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& w) override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] const FixedPointConfig& config() const { return config_; }

 private:
  FixedPointConfig config_;
};

}  // namespace flightnn::quant
