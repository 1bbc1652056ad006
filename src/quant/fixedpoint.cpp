#include "quant/fixedpoint.hpp"

#include <algorithm>
#include <limits>

#include "support/annotations.hpp"
#include "support/check.hpp"
#include "support/simd.hpp"

namespace flightnn::quant {

namespace {

// Round to the nearest integer, ties to even, by the 1.5 * 2^p magic
// constant: adding it rounds v to an integer in the default rounding mode,
// and subtracting it back is exact, for |v| < 2^(p-1); a larger |v| lands
// within a few units of itself, which the clamp to q_max < 2^15 then takes.
// Never -0. Unlike a libm rounding call it is branch-free and vectorizable
// on the SSE2 baseline, which has no roundps.
inline float round_to_integer(float v) {
  constexpr float kRound = 12582912.0F;  // 1.5 * 2^23
  return (v + kRound) - kRound;
}
inline double round_to_integer(double v) {
  constexpr double kRound = 6755399441055744.0;  // 1.5 * 2^52
  return (v + kRound) - kRound;
}

// The code loop in T: float on normal_scale, else double (the exact path).
template <typename T>
void codes_in(const float* in, std::int8_t* codes, std::int64_t n, T down,
              std::int32_t q_max) {
  for (std::int64_t i = 0; i < n; ++i) {
    const auto q = static_cast<std::int32_t>(
        round_to_integer(static_cast<T>(in[i]) * down));
    codes[i] = static_cast<std::int8_t>(std::min(q_max, std::max(-q_max, q)));
  }
}

// fake_quantize_values off normal_scale: each product formed in double,
// where a float times a power of two is exact, and rounded once. Not cloned:
// only pathological scales come here.
void fake_quantize_exact(const float* in, float* out, std::uint8_t* mask,
                         std::int64_t n, int e, std::int32_t q_max) {
  const double down = std::ldexp(1.0, -e);
  const auto lim = static_cast<double>(q_max);
  for (std::int64_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(in[i]) * down;
    if (mask != nullptr) mask[i] = static_cast<std::uint8_t>(std::fabs(v) > lim);
    out[i] = scale_code(std::min(lim, std::max(-lim, round_to_integer(v))), e);
  }
}

}  // namespace

int scale_exponent(float abs_max, std::int64_t q_max) {
  FLIGHTNN_CHECK(std::isfinite(abs_max),
                 "quantize: input holds a non-finite value (abs-max ", abs_max,
                 ")");
  if (abs_max == 0.0F) return 0;
  const float quotient = abs_max / static_cast<float>(q_max);
  if (quotient >= std::numeric_limits<float>::min()) {
    return static_cast<int>(std::ceil(std::log2(quotient)));
  }
  return static_cast<int>(std::ceil(std::log2(
      static_cast<double>(abs_max) / static_cast<double>(q_max))));
}

// Cloned, so training and the compiled network's quant ops run the avx2
// loop. Every clone and build gives the same bits: the one product that
// feeds an add, x * 2^-e, is exact wherever it can round to a nonzero
// integer, so an FMA there changes nothing. The float loops stay beside the
// exact one: the same loops in double took 2.3-3.7x the time per element
// of a cache-resident tensor (1.5x for the code loop) on one core of a
// 4-core AVX-512 Xeon.
FLIGHTNN_SIMD_CLONES FLIGHTNN_ALIGNED void fake_quantize_values(
    const float* in, float* out, std::uint8_t* mask, std::int64_t n, int e,
    std::int32_t q_max) {
  if (!normal_scale(e)) {
    fake_quantize_exact(in, out, mask, n, e, q_max);
    return;
  }
  const float down = std::ldexp(1.0F, -e);
  const float up = std::ldexp(1.0F, e);
  const auto lim = static_cast<float>(q_max);
  if (mask == nullptr) {
    for (std::int64_t i = 0; i < n; ++i) {
      const float q = round_to_integer(in[i] * down);
      out[i] = std::min(lim, std::max(-lim, q)) * up;
    }
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = in[i] * down;
    out[i] = std::min(lim, std::max(-lim, round_to_integer(v))) * up;
    mask[i] = static_cast<std::uint8_t>(std::fabs(v) > lim);
  }
}

// Every shift op's input passes through here, so it starts on a cache line.
FLIGHTNN_ALIGNED void quantize_codes(const float* in, std::int8_t* codes,
                                     std::int64_t n, int e,
                                     std::int32_t q_max) {
  if (normal_scale(e)) {
    codes_in(in, codes, n, std::ldexp(1.0F, -e), q_max);
  } else {
    codes_in(in, codes, n, std::ldexp(1.0, -e), q_max);
  }
}

FixedPointTransform::FixedPointTransform(FixedPointConfig config)
    : config_(config) {
  FLIGHTNN_CHECK(config.bits >= 2 && config.bits <= 16,
                 "FixedPointTransform: bits ", config.bits, " outside [2, 16]");
}

tensor::Tensor FixedPointTransform::forward(const tensor::Tensor& w) {
  const std::int32_t q_max = config_.q_max();
  tensor::Tensor out = tensor::Tensor::uninitialized(w.shape());
  fake_quantize_values(w.data(), out.data(), nullptr, w.numel(),
                       scale_exponent(w.abs_max(), q_max), q_max);
  return out;
}

std::string FixedPointTransform::describe() const {
  return "fixedpoint-" + std::to_string(config_.bits) + "b";
}

}  // namespace flightnn::quant
