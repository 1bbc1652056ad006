#include "quant/pow2.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "support/check.hpp"
#include "support/simd.hpp"

namespace flightnn::quant {

// Pow2Term::value() and the scalar round_to_pow2 live in the header: they
// are the specification peel_level is tested against.

void check_exponent_window(const Pow2Config& config, const char* who) {
  FLIGHTNN_CHECK(config.e_min >= kMinPow2Exponent &&
                     config.e_min <= config.e_max &&
                     config.e_max <= kMaxPow2Exponent,
                 who, ": exponent window [", config.e_min, ", ", config.e_max,
                 "] is empty or outside [", kMinPow2Exponent, ", ",
                 kMaxPow2Exponent, "]");
}

// round_to_pow2 on the bit pattern, element by element, with every branch
// turned into a select: the exponent field, bumped when the mantissa field
// passes that of the float nearest sqrt(2) (the same strict compare, on
// the integer form of the same bits), clamped to the window, with the
// residual's sign; or +0 for a zero, a NaN or, under flush_to_zero, a
// magnitude below 2^(e_min - 1). Order of non-negative floats is the order
// of their bit patterns, so the flush compare is the scalar one too.
FLIGHTNN_SIMD_CLONES
void peel_level(float* residual, float* acc, std::int64_t n,
                const Pow2Config& config) {
  FLIGHTNN_DCHECK(config.e_min >= kMinPow2Exponent &&
                      config.e_min <= config.e_max &&
                      config.e_max <= kMaxPow2Exponent,
                  "peel_level: exponent window [", config.e_min, ", ",
                  config.e_max, "] not checked");
  constexpr std::int32_t kInf = 0x7F800000;
  constexpr std::int32_t kMantissa = 0x007FFFFF;
  constexpr std::int32_t kSqrt2Mantissa = 0x003504F3;
  const int e_min = config.e_min;
  const int e_max = config.e_max;
  const std::int32_t flush_below =
      config.flush_to_zero
          ? std::bit_cast<std::int32_t>(0.5F * exp2_int(config.e_min))
          : 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto bits = std::bit_cast<std::uint32_t>(residual[i]);
    const auto mag = static_cast<std::int32_t>(bits & 0x7FFFFFFFU);
    int e = (mag >> 23) - 127 + ((mag & kMantissa) > kSqrt2Mantissa ? 1 : 0);
    e = std::min(std::max(e, e_min), e_max);
    const bool zero = (mag == 0) | (mag > kInf) | (mag < flush_below);
    // All ones to keep the term, all zeros to make it +0.
    const std::uint32_t keep = static_cast<std::uint32_t>(zero) - 1U;
    const std::uint32_t pow2 =
        (static_cast<std::uint32_t>(e + 127) << 23) | (bits & 0x80000000U);
    const float term = std::bit_cast<float>(pow2 & keep);
    acc[i] += term;
    // Where the term is +0 the residual keeps its bits: x - (+0) is x for
    // every float but a signaling NaN, which the subtraction would quiet.
    const auto peeled = std::bit_cast<std::uint32_t>(residual[i] - term);
    residual[i] = std::bit_cast<float>((peeled & keep) | (bits & ~keep));
  }
}

namespace {

// Elements per stack block of the tensor helpers below: their residuals
// and sums stay in L1, and nothing is allocated.
constexpr std::int64_t kBlock = 1024;

}  // namespace

tensor::Tensor round_to_pow2(const tensor::Tensor& x, const Pow2Config& config) {
  check_exponent_window(config, "round_to_pow2");
  // One level from a zero sum: each output is its element's term.
  tensor::Tensor out(x.shape());
  std::array<float, kBlock> residual;
  for (std::int64_t b = 0; b < x.numel(); b += kBlock) {
    const std::int64_t n = std::min(kBlock, x.numel() - b);
    std::copy_n(x.data() + b, n, residual.data());
    peel_level(residual.data(), out.data() + b, n, config);
  }
  return out;
}

bool is_pow2_representable(const tensor::Tensor& x, const Pow2Config& config) {
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float v = x[i];
    if (v == 0.0F) continue;
    const float mag = std::fabs(v);
    const float e = std::log2(mag);
    if (e != std::floor(e)) return false;
    const int ei = static_cast<int>(e);
    if (ei < config.e_min || ei > config.e_max) return false;
  }
  return true;
}

bool is_sum_of_pow2(const tensor::Tensor& x, int k, const Pow2Config& config) {
  FLIGHTNN_CHECK(k >= 1, "is_sum_of_pow2: k must be >= 1, got ", k);
  check_exponent_window(config, "is_sum_of_pow2");
  // Greedy residual peeling: a value is a sum of <= k representable terms iff
  // peeling the nearest power of two k times reaches zero and the terms add
  // back to the value (a residual far below 2^e_min can round away against
  // a clamped term). The greedy check matches how the quantizers construct
  // values, so it is exact for their outputs.
  std::array<float, kBlock> residual;
  std::array<float, kBlock> sum;
  for (std::int64_t b = 0; b < x.numel(); b += kBlock) {
    const std::int64_t n = std::min(kBlock, x.numel() - b);
    const float* values = x.data() + b;
    std::copy_n(values, n, residual.data());
    std::fill_n(sum.data(), n, 0.0F);
    for (int j = 0; j < k; ++j) {
      peel_level(residual.data(), sum.data(), n, config);
    }
    for (std::int64_t i = 0; i < n; ++i) {
      if (residual[static_cast<std::size_t>(i)] != 0.0F ||
          sum[static_cast<std::size_t>(i)] != values[i]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace flightnn::quant
