#include "quant/lightnn.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "pow2_reference.hpp"
#include "runtime/thread_pool.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace flightnn::quant {
namespace {

TEST(LightNNTest, K1IsPlainPow2Rounding) {
  const Pow2Config config;
  support::Rng rng(19);
  tensor::Tensor w = tensor::Tensor::randn(tensor::Shape{64}, rng, 0.0F, 0.3F);
  tensor::Tensor q1 = quantize_lightnn(w, 1, config);
  tensor::Tensor r = round_to_pow2(w, config);
  EXPECT_LT(tensor::max_abs_diff(q1, r), 1e-9F);
}

TEST(LightNNTest, OutputIsSumOfKPowers) {
  const Pow2Config config;
  support::Rng rng(20);
  tensor::Tensor w = tensor::Tensor::randn(tensor::Shape{256}, rng, 0.0F, 0.3F);
  for (int k = 1; k <= 3; ++k) {
    tensor::Tensor q = quantize_lightnn(w, k, config);
    EXPECT_TRUE(is_sum_of_pow2(q, k, config)) << "k=" << k;
  }
}

TEST(LightNNTest, HigherKNeverIncreasesError) {
  const Pow2Config config;
  support::Rng rng(21);
  tensor::Tensor w = tensor::Tensor::randn(tensor::Shape{512}, rng, 0.0F, 0.3F);
  double prev_error = 1e30;
  for (int k = 1; k <= 4; ++k) {
    tensor::Tensor q = quantize_lightnn(w, k, config);
    tensor::Tensor diff = w - q;
    const double error = diff.l2_norm();
    EXPECT_LE(error, prev_error + 1e-7) << "k=" << k;
    prev_error = error;
  }
}

TEST(LightNNTest, RecursiveDefinitionHolds) {
  // Q_k(w) = Q_{k-1}(w) + Q_1(w - Q_{k-1}(w))  (Sec. 3)
  const Pow2Config config;
  support::Rng rng(22);
  tensor::Tensor w = tensor::Tensor::randn(tensor::Shape{128}, rng, 0.0F, 0.3F);
  for (int k = 2; k <= 3; ++k) {
    tensor::Tensor q_k = quantize_lightnn(w, k, config);
    tensor::Tensor q_km1 = quantize_lightnn(w, k - 1, config);
    tensor::Tensor residual = w - q_km1;
    tensor::Tensor expected = q_km1 + quantize_lightnn(residual, 1, config);
    EXPECT_LT(tensor::max_abs_diff(q_k, expected), 1e-9F) << "k=" << k;
  }
}

TEST(LightNNTest, ExactValuesPassThrough) {
  const Pow2Config config;
  tensor::Tensor w(tensor::Shape{4},
                   std::vector<float>{0.5F, -0.125F, 0.0F, 1.0F});
  tensor::Tensor q = quantize_lightnn(w, 1, config);
  EXPECT_LT(tensor::max_abs_diff(w, q), 1e-9F);
}

TEST(LightNNTest, KnownTwoTermExpansion) {
  const Pow2Config config;
  tensor::Tensor w(tensor::Shape{1}, std::vector<float>{0.625F});
  // 0.625: R -> 0.5, residual 0.125 -> 0.125. Sum = 0.625 exactly.
  tensor::Tensor q2 = quantize_lightnn(w, 2, config);
  EXPECT_FLOAT_EQ(q2[0], 0.625F);
  tensor::Tensor q1 = quantize_lightnn(w, 1, config);
  EXPECT_FLOAT_EQ(q1[0], 0.5F);
}

TEST(LightNNTest, InvalidKThrows) {
  const Pow2Config config;
  tensor::Tensor w(tensor::Shape{1});
  EXPECT_THROW((void)quantize_lightnn(w, 0, config), std::invalid_argument);
  EXPECT_THROW(LightNNTransform(0), std::invalid_argument);
}

// Q_k as it was computed element by element before the level-by-level
// peel: k scalar terms, stopping at the first zero term.
tensor::Tensor scalar_quantize_lightnn(const tensor::Tensor& w, int k,
                                       const Pow2Config& config) {
  tensor::Tensor out(w.shape());
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    float acc = 0.0F;
    float residual = w[i];
    for (int j = 0; j < k; ++j) {
      const float term = round_to_pow2(residual, config).value();
      if (term == 0.0F) break;
      acc += term;
      residual -= term;
    }
    out[i] = acc;
  }
  return out;
}

// Bit-identical to the scalar loop on the adversarial floats, for k = 1..3,
// flush on and off, on one thread and on four (whose split of the range
// cuts the stack blocks at other places). The windows keep k * 2^e_max
// finite, as quantize_lightnn requires for k >= 2; pow2_test's sweep covers
// [-126, 127] at the level itself.
TEST(LightNNTest, MatchesTheScalarLoopBitForBit) {
  for (const auto& [e_min, e_max] : {std::pair{-6, 0}, std::pair{-10, -3}}) {
    for (const bool flush : {true, false}) {
      Pow2Config config;
      config.e_min = e_min;
      config.e_max = e_max;
      config.flush_to_zero = flush;
      const std::vector<float> values =
          reference::adversarial_floats(config, 43, 1 << 14);
      const tensor::Tensor w(
          tensor::Shape{static_cast<std::int64_t>(values.size())}, values);
      for (int k = 1; k <= 3; ++k) {
        const tensor::Tensor want = scalar_quantize_lightnn(w, k, config);
        for (const int threads : {1, 4}) {
          runtime::set_num_threads(threads);
          const tensor::Tensor got = quantize_lightnn(w, k, config);
          EXPECT_TRUE(reference::same_bits(got.data(), want.data(),
                                           values.size()))
              << "window [" << e_min << ", " << e_max << "] flush " << flush
              << " k " << k << " threads " << threads;
        }
      }
    }
  }
  runtime::set_num_threads(0);
}

TEST(LightNNTest, WindowOutsideTheNormalRangeIsRefused) {
  const tensor::Tensor w(tensor::Shape{2}, std::vector<float>{0.5F, -0.3F});
  for (const auto& [e_min, e_max] :
       {std::pair{-127, 0}, std::pair{-6, 128}, std::pair{0, -1}}) {
    Pow2Config config;
    config.e_min = e_min;
    config.e_max = e_max;
    EXPECT_THROW((void)quantize_lightnn(w, 2, config), support::CheckFailure)
        << e_min << ", " << e_max;
  }
}

// k terms of 2^e_max must sum to a finite float: in [-126, 127], FLT_MAX
// would quantize to 2^127 + 2^127 = +inf at k = 2.
TEST(LightNNTest, KTermsPastFltMaxAreRefused) {
  const tensor::Tensor w(tensor::Shape{1},
                         std::vector<float>{std::numeric_limits<float>::max()});
  Pow2Config top;
  top.e_min = -126;
  top.e_max = 127;
  EXPECT_EQ(quantize_lightnn(w, 1, top)[0], std::ldexp(1.0F, 127));
  for (const int k : {2, 3}) {
    EXPECT_THROW((void)quantize_lightnn(w, k, top), support::CheckFailure) << k;
    EXPECT_THROW(LightNNTransform(k, top), support::CheckFailure) << k;
  }
  // 3 * 2^126 fits; 4 * 2^126 is 2^128.
  Pow2Config below = top;
  below.e_max = 126;
  const tensor::Tensor q = quantize_lightnn(w, 3, below);
  EXPECT_TRUE(std::isfinite(q[0]));
  EXPECT_EQ(q[0], 3.0F * std::ldexp(1.0F, 126));
  EXPECT_THROW((void)quantize_lightnn(w, 4, below), support::CheckFailure);
}

TEST(LightNNTransformTest, ForwardMatchesFreeFunction) {
  LightNNTransform transform(2);
  support::Rng rng(23);
  tensor::Tensor w = tensor::Tensor::randn(tensor::Shape{8, 4}, rng, 0.0F, 0.3F);
  tensor::Tensor q = transform.forward(w);
  tensor::Tensor expected = quantize_lightnn(w, 2, transform.config());
  EXPECT_LT(tensor::max_abs_diff(q, expected), 1e-9F);
  EXPECT_EQ(transform.describe(), "lightnn-k2");
}

TEST(LightNNTransformTest, BackwardIsStraightThrough) {
  LightNNTransform transform(2);
  tensor::Tensor w(tensor::Shape{4}, std::vector<float>{0.3F, -0.2F, 0.1F, 0.0F});
  tensor::Tensor grad_wq(tensor::Shape{4}, std::vector<float>{1, 2, 3, 4});
  tensor::Tensor grad_w(tensor::Shape{4}, std::vector<float>{10, 10, 10, 10});
  transform.backward(w, grad_wq, grad_w);
  EXPECT_FLOAT_EQ(grad_w[0], 11.0F);
  EXPECT_FLOAT_EQ(grad_w[3], 14.0F);
}

TEST(LightNNTransformTest, NoRegularizationOrInternalState) {
  LightNNTransform transform(1);
  tensor::Tensor w(tensor::Shape{4}, 0.3F);
  EXPECT_EQ(transform.regularization(w, nullptr), 0.0);
  transform.step_internal(0.1F);  // must be a no-op, not crash
}

}  // namespace
}  // namespace flightnn::quant
