#include "quant/fixedpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "support/rng.hpp"

namespace flightnn::quant {
namespace {

// The quantizer's definition, evaluated in long double: round half to even
// of x * 2^-e (exact there), clamped, scaled back by 2^e and rounded once
// to float.
float reference_value(float x, int e, std::int32_t q_max) {
  const long double v = std::ldexp(static_cast<long double>(x), -e);
  long double q = std::nearbyint(v);
  q = std::fmin(std::fmax(q, -static_cast<long double>(q_max)),
                static_cast<long double>(q_max));
  return static_cast<float>(std::ldexp(q, e));
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(FixedPointTest, QMaxBySignBit) {
  EXPECT_EQ(FixedPointConfig{4}.q_max(), 7);
  EXPECT_EQ(FixedPointConfig{8}.q_max(), 127);
  EXPECT_EQ(FixedPointConfig{2}.q_max(), 1);
}

TEST(FixedPointTest, ScaleIsPowerOfTwoCoveringAbsMax) {
  const std::int32_t q_max = FixedPointConfig{8}.q_max();
  const int e = scale_exponent(0.9F, q_max);
  EXPECT_GE(std::ldexp(static_cast<double>(q_max), e), 0.9);
  // One halving would no longer cover abs-max.
  EXPECT_LT(std::ldexp(static_cast<double>(q_max), e - 1), 0.9);
}

TEST(FixedPointTest, ZeroAbsMaxGetsExponentZero) {
  EXPECT_EQ(scale_exponent(0.0F, 127), 0);
}

// A NaN or infinity has no exponent: the quantizer refuses it with a typed
// error instead of converting log2 of it to int.
TEST(FixedPointTest, NonFiniteAbsMaxThrows) {
  EXPECT_THROW((void)scale_exponent(std::numeric_limits<float>::infinity(), 127),
               std::invalid_argument);
  EXPECT_THROW((void)scale_exponent(std::numeric_limits<float>::quiet_NaN(), 127),
               std::invalid_argument);
  tensor::Tensor w(tensor::Shape{2}, std::vector<float>{
                                         1.0F, std::numeric_limits<float>::quiet_NaN()});
  FixedPointTransform transform(FixedPointConfig{8});
  EXPECT_THROW((void)transform.forward(w), std::invalid_argument);
}

TEST(FixedPointTest, QuantizedValuesAreMultiplesOfScale) {
  const FixedPointConfig config{4};
  support::Rng rng(24);
  tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{100}, rng, 0.0F, 0.5F);
  const int e = scale_exponent(x.abs_max(), config.q_max());
  FixedPointTransform transform(config);
  tensor::Tensor q = transform.forward(x);
  for (std::int64_t i = 0; i < q.numel(); ++i) {
    const float ratio = std::ldexp(q[i], -e);
    EXPECT_FLOAT_EQ(ratio, std::nearbyint(ratio));
    EXPECT_LE(std::fabs(ratio), static_cast<float>(config.q_max()));
  }
}

TEST(FixedPointTest, QuantizationErrorBoundedByHalfScale) {
  const std::int32_t q_max = FixedPointConfig{8}.q_max();
  support::Rng rng(25);
  tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{500}, rng, 0.0F, 0.5F);
  const int e = scale_exponent(x.abs_max(), q_max);
  const float scale = std::ldexp(1.0F, e);
  tensor::Tensor q(x.shape());
  fake_quantize_values(x.data(), q.data(), nullptr, x.numel(), e, q_max);
  // Values inside the representable range round to within scale/2.
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x[i]) <= scale * static_cast<float>(q_max)) {
      EXPECT_LE(std::fabs(x[i] - q[i]), scale / 2.0F + 1e-7F);
    }
  }
}

TEST(FixedPointTest, SaturationClampsAndMasks) {
  const std::vector<float> x = {100.0F, -100.0F, 7.0F, -7.5F};
  std::vector<float> q(x.size());
  std::vector<std::uint8_t> mask(x.size());
  fake_quantize_values(x.data(), q.data(), mask.data(), 4, 0, 7);
  EXPECT_EQ(q, (std::vector<float>{7.0F, -7.0F, 7.0F, -7.0F}));
  EXPECT_EQ(mask, (std::vector<std::uint8_t>{1, 1, 0, 1}));
  std::vector<std::int8_t> codes(x.size());
  quantize_codes(x.data(), codes.data(), 4, 0, 7);
  EXPECT_EQ(codes, (std::vector<std::int8_t>{7, -7, 7, -7}));
}

// Both loops against the long-double definition, bit for bit, at every
// scale: abs-max from the smallest subnormal to FLT_MAX, so both the float
// path and the exact path run, at 2, 8 and 16 bits for the float loop and
// at 2 and 8 for the int8 code loop. The codes scale back to the float
// loop's values through scale_code, and the mask is the saturated elements.
TEST(FixedPointTest, LoopsMatchTheDefinitionAtEveryScale) {
  support::Rng rng(28);
  int exact_path = 0;
  for (const int bits : {2, 8, 16}) {
    const std::int32_t q_max = FixedPointConfig{bits}.q_max();
    for (int p = -149; p <= 127; p += 3) {
      std::vector<float> x(67);
      for (auto& v : x) {
        v = std::ldexp(static_cast<float>(rng.uniform(-1.0, 1.0)), p);
      }
      x[0] = std::ldexp(1.0F, p);
      x[1] = 0.0F;
      x[2] = -0.0F;
      const float abs_max = tensor::Tensor(tensor::Shape{67}, x).abs_max();
      const int e = scale_exponent(abs_max, q_max);
      if (!normal_scale(e)) ++exact_path;
      std::vector<float> values(x.size());
      std::vector<std::uint8_t> mask(x.size());
      std::vector<std::int8_t> codes(x.size());
      fake_quantize_values(x.data(), values.data(), mask.data(), 67, e, q_max);
      const bool int8_codes = bits <= 8;
      if (int8_codes) quantize_codes(x.data(), codes.data(), 67, e, q_max);
      for (std::size_t i = 0; i < x.size(); ++i) {
        // + 0.0F: a zero code comes out +0.
        const float want = reference_value(x[i], e, q_max) + 0.0F;
        EXPECT_TRUE(same_bits(values[i], want))
            << "bits " << bits << " p " << p << " x " << x[i] << ": "
            << values[i] << " vs " << want;
        if (int8_codes) {
          EXPECT_TRUE(same_bits(scale_code(codes[i], e), values[i]))
              << "bits " << bits << " p " << p << " code " << int{codes[i]};
        }
        const bool saturated =
            std::fabs(std::ldexp(static_cast<long double>(x[i]), -e)) > q_max;
        EXPECT_EQ(mask[i] != 0, saturated) << "bits " << bits << " p " << p;
      }
    }
  }
  EXPECT_GT(exact_path, 0);
}

// scale_code is the correctly rounded q * 2^e: exact below FLT_MIN where
// that is representable, the nearest subnormal where it is not, +inf past
// FLT_MAX, and +0 for a zero code at any scale.
TEST(FixedPointTest, ScaleCodeIsCorrectlyRounded) {
  EXPECT_EQ(scale_code(64, -155), std::ldexp(1.0F, -149));
  EXPECT_EQ(scale_code(-127, -147), -127.0F * std::ldexp(1.0F, -147));
  EXPECT_EQ(scale_code(3, -151), std::ldexp(1.0F, -149));  // 0.75 ulp: up
  EXPECT_EQ(scale_code(1, -151), 0.0F);                    // 0.25 ulp: down
  EXPECT_EQ(scale_code(1, 128), std::numeric_limits<float>::infinity());
  EXPECT_TRUE(same_bits(scale_code(0, 128), 0.0F));
  EXPECT_TRUE(same_bits(scale_code(0, -200), 0.0F));
  EXPECT_EQ(scale_code(127, 3), 1016.0F);
}

TEST(FixedPointTransformTest, DescribesAndValidates) {
  FixedPointTransform transform(FixedPointConfig{4});
  EXPECT_EQ(transform.describe(), "fixedpoint-4b");
  EXPECT_THROW(FixedPointTransform(FixedPointConfig{1}), std::invalid_argument);
  EXPECT_THROW(FixedPointTransform(FixedPointConfig{17}), std::invalid_argument);
}

TEST(FixedPointTransformTest, ForwardQuantizes) {
  FixedPointTransform transform(FixedPointConfig{4});
  support::Rng rng(26);
  tensor::Tensor w = tensor::Tensor::randn(tensor::Shape{10, 10}, rng, 0.0F, 0.3F);
  tensor::Tensor q = transform.forward(w);
  // At most 2 * q_max + 1 = 15 distinct values.
  std::set<float> distinct;
  for (std::int64_t i = 0; i < q.numel(); ++i) distinct.insert(q[i]);
  EXPECT_LE(distinct.size(), 15u);
}

// Weights whose abs-max is the smallest subnormal quantize at 2^-155 (code
// 64 at 8 bits) and come back as themselves: a float scale cannot hold
// 2^-155, and the explicit-scale path refused the zero it underflowed to.
TEST(FixedPointTransformTest, TinyWeightsComeBackExactly) {
  const float tiny = std::numeric_limits<float>::denorm_min();
  tensor::Tensor w(tensor::Shape{3}, std::vector<float>{tiny, -tiny, 0.0F});
  FixedPointTransform transform(FixedPointConfig{8});
  tensor::Tensor q = transform.forward(w);
  EXPECT_EQ(q[0], tiny);
  EXPECT_EQ(q[1], -tiny);
  EXPECT_EQ(q[2], 0.0F);
}

// At 2 bits {FLT_MAX, 1} takes scale 2^128, which a float cannot hold:
// FLT_MAX is code 1 and comes back as +inf, the correctly rounded 2^128,
// and 1 is code 0 and comes back as 0, not 0 * inf = NaN.
TEST(FixedPointTransformTest, TopOfTheRangeRoundsToInfinityAndZero) {
  const float big = std::numeric_limits<float>::max();
  tensor::Tensor w(tensor::Shape{2}, std::vector<float>{big, 1.0F});
  FixedPointTransform transform(FixedPointConfig{2});
  tensor::Tensor q = transform.forward(w);
  EXPECT_EQ(q[0], std::numeric_limits<float>::infinity());
  EXPECT_TRUE(same_bits(q[1], 0.0F));
}

// The one difference from the nearbyint quantizer this replaced: a value
// that rounds to code 0 comes out +0, whatever its sign.
TEST(FixedPointTransformTest, ZeroCodesComeOutPositive) {
  tensor::Tensor w(tensor::Shape{3}, std::vector<float>{-0.0F, -1e-3F, 1.0F});
  FixedPointTransform transform(FixedPointConfig{4});
  tensor::Tensor q = transform.forward(w);
  EXPECT_TRUE(same_bits(q[0], 0.0F));
  EXPECT_TRUE(same_bits(q[1], 0.0F));
}

}  // namespace
}  // namespace flightnn::quant
