#pragma once

// The scalar pow2 peel that quant::peel_level must reproduce bit for bit,
// and the floats that probe every branch of it: signed zeros, NaN payloads,
// infinities, subnormals, the mantissas either side of the sqrt(2) cutoff at
// every exponent, the flush threshold 2^(e_min - 1) and its neighbours, the
// window's ends, then random bit patterns and random weights.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "quant/pow2.hpp"
#include "support/rng.hpp"

namespace flightnn::quant::reference {

// One level of the greedy peel, element by element, on the scalar
// specification: the loop every quantizer ran before peel_level. A zero
// term is not subtracted: x - (+0) is x for every float but a signaling
// NaN, which the subtraction quiets where the compiler keeps it and leaves
// where it folds it away.
inline void scalar_peel_level(float* residual, float* acc, std::int64_t n,
                              const Pow2Config& config) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float term = round_to_pow2(residual[i], config).value();
    acc[i] += term;
    if (term != 0.0F) residual[i] -= term;
  }
}

inline float from_bits(std::uint32_t bits) {
  return std::bit_cast<float>(bits);
}

// 2^e nudged by `ulps` units in the last place (bit-pattern steps), for e in
// [-149, 127].
inline float pow2_nudged(int e, int ulps) {
  const auto bits = std::bit_cast<std::uint32_t>(std::ldexp(1.0F, e));
  return from_bits(
      static_cast<std::uint32_t>(static_cast<std::int64_t>(bits) + ulps));
}

inline std::vector<float> adversarial_floats(const Pow2Config& config,
                                             std::uint64_t seed,
                                             int random_count) {
  std::vector<float> values;
  const auto both_signs = [&values](float v) {
    values.push_back(v);
    values.push_back(-v);
  };
  both_signs(0.0F);
  for (const std::uint32_t nan :
       {0x7FC00000U, 0x7FC00001U, 0x7FFFFFFFU, 0x7F800001U, 0x7FA00000U,
        0x7F8FFFFFU}) {
    values.push_back(from_bits(nan));
    values.push_back(from_bits(nan | 0x80000000U));
  }
  both_signs(std::numeric_limits<float>::infinity());
  both_signs(std::numeric_limits<float>::max());
  both_signs(std::numeric_limits<float>::min());
  for (const std::uint32_t sub : {0x00000001U, 0x003504F3U, 0x003504F4U,
                                  0x003FFFFFU, 0x00400000U, 0x00400001U,
                                  0x007FFFFFU}) {
    both_signs(from_bits(sub));
  }
  // Mantissa fields either side of sqrt(2)'s, 0x3504F3, at every exponent.
  for (std::uint32_t exponent = 1; exponent <= 254; ++exponent) {
    both_signs(from_bits(exponent << 23 | 0x3504F3U));
    both_signs(from_bits(exponent << 23 | 0x3504F4U));
  }
  // The flush threshold 2^(e_min - 1), the window's ends, each +-1 ulp.
  for (const int e : {config.e_min - 1, config.e_min, config.e_max,
                      config.e_max + 1}) {
    if (e > 127) continue;
    for (const int ulps : {-1, 0, 1}) both_signs(pow2_nudged(e, ulps));
  }
  support::Rng rng(seed);
  for (int i = 0; i < random_count; ++i) {
    const auto bits = static_cast<std::uint32_t>(rng.uniform_index(1ULL << 32));
    values.push_back(from_bits(bits));
    values.push_back(static_cast<float>(rng.normal(0.0, 0.3)));
  }
  return values;
}

// Bitwise equality (NaN payloads and signed zeros included).
inline bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

}  // namespace flightnn::quant::reference
