#include "quant/pow2.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "pow2_reference.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace flightnn::quant {
namespace {

TEST(Pow2Test, ExactPowersAreFixedPoints) {
  const Pow2Config config;
  for (int e = config.e_min; e <= config.e_max; ++e) {
    const float v = std::ldexp(1.0F, e);
    EXPECT_FLOAT_EQ(round_to_pow2(v, config).value(), v) << "e=" << e;
    EXPECT_FLOAT_EQ(round_to_pow2(-v, config).value(), -v) << "e=" << e;
  }
}

TEST(Pow2Test, ZeroMapsToZero) {
  const Pow2Config config;
  const Pow2Term t = round_to_pow2(0.0F, config);
  EXPECT_EQ(t.sign, 0);
  EXPECT_EQ(t.value(), 0.0F);
}

TEST(Pow2Test, RoundsInLogDomain) {
  const Pow2Config config;
  // log2(0.75) = -0.415 -> rounds to -0, i.e. 2^0? No: round(-0.415) = 0.
  EXPECT_FLOAT_EQ(round_to_pow2(0.75F, config).value(), 1.0F);
  // 0.7: log2 = -0.515 -> -1 -> 0.5
  EXPECT_FLOAT_EQ(round_to_pow2(0.7F, config).value(), 0.5F);
  // 1.5: log2 = 0.585 -> 1 -> 2, but e_max = 0 clamps to 1.
  EXPECT_FLOAT_EQ(round_to_pow2(1.5F, config).value(), 1.0F);
  // 3.0: log2 = 1.585 -> 2 -> clamped to e_max = 0 -> 1.
  EXPECT_FLOAT_EQ(round_to_pow2(3.0F, config).value(), 1.0F);
}

TEST(Pow2Test, SignIsPreserved) {
  const Pow2Config config;
  EXPECT_LT(round_to_pow2(-0.3F, config).value(), 0.0F);
  EXPECT_GT(round_to_pow2(0.3F, config).value(), 0.0F);
}

TEST(Pow2Test, FlushToZeroBelowHalfMinMagnitude) {
  Pow2Config config;
  config.e_min = -3;  // min magnitude 0.125; flush below 0.0625
  EXPECT_EQ(round_to_pow2(0.05F, config).value(), 0.0F);
  EXPECT_EQ(round_to_pow2(-0.05F, config).value(), 0.0F);
  EXPECT_NE(round_to_pow2(0.07F, config).value(), 0.0F);
}

TEST(Pow2Test, NoFlushClampsToMinExponent) {
  Pow2Config config;
  config.e_min = -3;
  config.flush_to_zero = false;
  EXPECT_FLOAT_EQ(round_to_pow2(0.001F, config).value(), 0.125F);
}

TEST(Pow2Test, ClampAtMaxExponent) {
  Pow2Config config;
  config.e_max = 2;
  EXPECT_FLOAT_EQ(round_to_pow2(100.0F, config).value(), 4.0F);
}

TEST(Pow2Test, ExponentLevels) {
  Pow2Config config;
  config.e_min = -7;
  config.e_max = 0;
  EXPECT_EQ(config.exponent_levels(), 8);  // fits 3 exponent bits
}

TEST(Pow2Test, TensorVariantMatchesScalar) {
  const Pow2Config config;
  support::Rng rng(17);
  tensor::Tensor w = tensor::Tensor::randn(tensor::Shape{100}, rng, 0.0F, 0.3F);
  tensor::Tensor q = round_to_pow2(w, config);
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_FLOAT_EQ(q[i], round_to_pow2(w[i], config).value());
  }
}

TEST(Pow2Test, RoundingMinimizesLogDistance) {
  // Property: among representable powers of two, the chosen one minimizes
  // |log2(|x|) - e| (up to exponent clamping).
  const Pow2Config config;
  support::Rng rng(18);
  for (int trial = 0; trial < 500; ++trial) {
    const float x = static_cast<float>(rng.uniform(0.01, 1.0));
    const Pow2Term t = round_to_pow2(x, config);
    if (t.sign == 0) continue;
    const double log_x = std::log2(x);
    const double dist = std::fabs(log_x - t.exponent);
    for (int e = config.e_min; e <= config.e_max; ++e) {
      EXPECT_LE(dist, std::fabs(log_x - e) + 1e-9);
    }
  }
}

TEST(Pow2Test, IsPow2Representable) {
  const Pow2Config config;
  tensor::Tensor good(tensor::Shape{3}, std::vector<float>{0.5F, -0.25F, 0.0F});
  EXPECT_TRUE(is_pow2_representable(good, config));
  tensor::Tensor bad(tensor::Shape{1}, std::vector<float>{0.3F});
  EXPECT_FALSE(is_pow2_representable(bad, config));
  tensor::Tensor out_of_range(tensor::Shape{1}, std::vector<float>{2.0F});
  EXPECT_FALSE(is_pow2_representable(out_of_range, config));  // e_max = 0
}

TEST(Pow2Test, IsSumOfPow2) {
  const Pow2Config config;
  // 0.75 = 0.5 + 0.25: two terms.
  tensor::Tensor v(tensor::Shape{1}, std::vector<float>{0.75F});
  EXPECT_FALSE(is_sum_of_pow2(v, 1, config));
  EXPECT_TRUE(is_sum_of_pow2(v, 2, config));
}

// The windows the exactness tests sweep: the default 4-bit code, the whole
// normal float range, and a window whose ends are both negative.
std::vector<Pow2Config> exactness_windows() {
  std::vector<Pow2Config> configs;
  for (const auto& [e_min, e_max] : {std::pair{-6, 0}, std::pair{-126, 127},
                                    std::pair{-10, -3}}) {
    for (const bool flush : {true, false}) {
      Pow2Config config;
      config.e_min = e_min;
      config.e_max = e_max;
      config.flush_to_zero = flush;
      configs.push_back(config);
    }
  }
  return configs;
}

std::string describe(const Pow2Config& config, int level) {
  return "window [" + std::to_string(config.e_min) + ", " +
         std::to_string(config.e_max) + "] flush " +
         std::to_string(config.flush_to_zero) + " level " +
         std::to_string(level);
}

TEST(Pow2PeelLevelTest, MatchesTheScalarPeelBitForBit) {
  for (const Pow2Config& config : exactness_windows()) {
    const std::vector<float> values =
        reference::adversarial_floats(config, 41, 1 << 15);
    const auto n = static_cast<std::int64_t>(values.size());
    std::vector<float> residual = values, want_residual = values;
    std::vector<float> acc(values.size()), want_acc(values.size());
    // Three levels: the sweep covers k = 1..3 level by level.
    for (int level = 0; level < 3; ++level) {
      peel_level(residual.data(), acc.data(), n, config);
      reference::scalar_peel_level(want_residual.data(), want_acc.data(), n,
                                   config);
      EXPECT_TRUE(reference::same_bits(residual.data(), want_residual.data(),
                                       values.size()))
          << describe(config, level);
      EXPECT_TRUE(
          reference::same_bits(acc.data(), want_acc.data(), values.size()))
          << describe(config, level);
    }
  }
}

TEST(Pow2PeelLevelTest, ZeroTermsArePositiveZero) {
  // A term is +0 wherever nothing is peeled: a -0 sum becomes +0
  // (-0 + +0), and the residual keeps its bits (a -0, a NaN, a flushed
  // value).
  const Pow2Config config;
  std::vector<float> residual = {-0.0F, 0.0F, std::nanf("1"), 0.005F};
  std::vector<float> acc = {-0.0F, -0.0F, -0.0F, -0.0F};
  peel_level(residual.data(), acc.data(), 4, config);
  for (const float v : acc) EXPECT_FALSE(std::signbit(v));
  EXPECT_TRUE(std::signbit(residual[0]));
  EXPECT_TRUE(std::isnan(residual[2]));
  EXPECT_EQ(residual[3], 0.005F);  // below 2^(e_min - 1): flushed
}

TEST(Pow2PeelLevelTest, TermOfTheFloatIsTheScalarTerm) {
  for (const Pow2Config& config : exactness_windows()) {
    for (const float v : reference::adversarial_floats(config, 42, 1 << 10)) {
      const Pow2Term want = round_to_pow2(v, config);
      const Pow2Term got = pow2_term_of(want.value());
      EXPECT_EQ(got.sign, want.sign) << v;
      EXPECT_EQ(got.exponent, want.exponent) << v;
    }
  }
}

TEST(Pow2Test, WindowOutsideTheNormalRangeIsRefused) {
  tensor::Tensor x(tensor::Shape{2}, std::vector<float>{0.5F, 0.25F});
  for (const auto& [e_min, e_max] :
       {std::pair{-127, 0}, std::pair{0, 128}, std::pair{1, 0},
        std::pair{-200, -150}}) {
    Pow2Config config;
    config.e_min = e_min;
    config.e_max = e_max;
    EXPECT_THROW(check_exponent_window(config, "test"), support::CheckFailure)
        << e_min << ", " << e_max;
    EXPECT_THROW((void)round_to_pow2(x, config), support::CheckFailure);
    EXPECT_THROW((void)is_sum_of_pow2(x, 2, config), support::CheckFailure);
  }
  Pow2Config widest;
  widest.e_min = kMinPow2Exponent;
  widest.e_max = kMaxPow2Exponent;
  EXPECT_NO_THROW(check_exponent_window(widest, "test"));
}

TEST(Pow2Test, IsSumOfPow2NeedsTheTermsToAddBack) {
  // Without the flush, 2^(e_min - 30) peels into +2^e_min and then
  // -2^e_min (the first subtraction rounds), leaving a zero residual whose
  // terms add to 0, not to the value.
  Pow2Config config;
  config.flush_to_zero = false;
  tensor::Tensor tiny(tensor::Shape{1},
                      std::vector<float>{std::ldexp(1.0F, config.e_min - 30)});
  EXPECT_FALSE(is_sum_of_pow2(tiny, 2, config));
  tensor::Tensor unit(tensor::Shape{1},
                      std::vector<float>{std::ldexp(1.0F, config.e_min)});
  EXPECT_TRUE(is_sum_of_pow2(unit, 1, config));
}

}  // namespace
}  // namespace flightnn::quant
