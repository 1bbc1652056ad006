#include "core/decompose.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "core/flightnn_transform.hpp"
#include "quant/lightnn.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace flightnn::core {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(DecomposeTest, LightNN1YieldsOneTermPerNonzeroFilter) {
  support::Rng rng(1);
  Tensor w = Tensor::randn(Shape{4, 2, 3, 3}, rng, 0.0F, 0.3F);
  Tensor q = quant::quantize_lightnn(w, 1, quant::Pow2Config{});
  const auto d = decompose_to_lightnn1(q, 1, quant::Pow2Config{});
  EXPECT_EQ(d.filter_k.size(), 4u);
  for (int k : d.filter_k) EXPECT_LE(k, 1);
  EXPECT_EQ(d.elements_per_filter, 18);
}

TEST(DecomposeTest, ReconstructionIsExact) {
  support::Rng rng(2);
  Tensor w = Tensor::randn(Shape{6, 3, 3, 3}, rng, 0.0F, 0.3F);
  for (int k = 1; k <= 3; ++k) {
    Tensor q = quant::quantize_lightnn(w, k, quant::Pow2Config{});
    const auto d = decompose_to_lightnn1(q, k, quant::Pow2Config{});
    Tensor rebuilt = d.reconstruct(q.shape());
    EXPECT_LT(tensor::max_abs_diff(q, rebuilt), 1e-9F) << "k=" << k;
  }
}

TEST(DecomposeTest, EveryTermIsSingleShift) {
  support::Rng rng(3);
  Tensor w = Tensor::randn(Shape{4, 1, 3, 3}, rng, 0.0F, 0.3F);
  Tensor q = quant::quantize_lightnn(w, 2, quant::Pow2Config{});
  const auto d = decompose_to_lightnn1(q, 2, quant::Pow2Config{});
  const quant::Pow2Config config;
  for (const auto& term : d.terms) {
    for (const auto& element : term.elements) {
      if (element.sign == 0) continue;
      EXPECT_GE(element.exponent, config.e_min);
      EXPECT_LE(element.exponent, config.e_max);
      EXPECT_TRUE(element.sign == 1 || element.sign == -1);
    }
  }
}

TEST(DecomposeTest, FLightNNOutputDecomposesByFilterK) {
  FLightNNTransform transform;
  transform.set_thresholds({0.05F, 0.3F});
  support::Rng rng(4);
  Tensor w = Tensor::randn(Shape{8, 2, 3, 3}, rng, 0.0F, 0.3F);
  Tensor q = transform.forward(w);
  const auto d = decompose_to_lightnn1(q, 2, transform.config().pow2);
  // Term counts per filter can be below the transform's k_i (a level can
  // round to an all-zero term) but never above.
  const auto ks = transform.filter_k(w);
  for (std::size_t i = 0; i < ks.size(); ++i) {
    EXPECT_LE(d.filter_k[i], ks[i]) << "filter " << i;
  }
  EXPECT_LT(tensor::max_abs_diff(q, d.reconstruct(q.shape())), 1e-9F);
}

TEST(DecomposeTest, ZeroFilterProducesNoTerms) {
  Tensor q(Shape{2, 1, 2, 2});
  q[0] = 0.5F;  // filter 0 has one nonzero element; filter 1 all zero
  const auto d = decompose_to_lightnn1(q, 2, quant::Pow2Config{});
  EXPECT_EQ(d.filter_k[0], 1);
  EXPECT_EQ(d.filter_k[1], 0);
  EXPECT_EQ(d.term_count(), 1);
}

TEST(DecomposeTest, NonQuantizedInputThrows) {
  Tensor w(Shape{1, 1, 1, 3}, std::vector<float>{0.3F, 0.1F, 0.7F});
  EXPECT_THROW((void)decompose_to_lightnn1(w, 1, quant::Pow2Config{}),
               std::invalid_argument);
}

// With flush_to_zero off, 2^(e_min - 30) peels into +2^e_min, then
// -2^e_min (2^(e_min - 30) - 2^e_min rounds to -2^e_min): a zero residual
// whose two terms reconstruct to 0, not to the weight. It is refused,
// naming the filter and the element.
TEST(DecomposeTest, WeightWhoseTermsDoNotAddBackIsRefused) {
  quant::Pow2Config config;
  config.flush_to_zero = false;
  Tensor q(Shape{2, 1, 1, 3},
           std::vector<float>{0.5F, 0.25F, 0.0F,
                              0.5F, std::ldexp(1.0F, config.e_min - 30), 1.0F});
  try {
    (void)decompose_to_lightnn1(q, 2, config);
    FAIL() << "decomposed a weight its terms do not rebuild";
  } catch (const support::CheckFailure& failure) {
    const std::string what = failure.what();
    EXPECT_NE(what.find("filter 1 element 1"), std::string::npos) << what;
  }
  // With the flush, the same weight rounds to zero: one fewer weight than
  // the filter holds, so it is not a sum of terms either.
  config.flush_to_zero = true;
  EXPECT_THROW((void)decompose_to_lightnn1(q, 2, config),
               support::CheckFailure);
  // The quantized tensor decomposes and rebuilds exactly.
  q[4] = std::ldexp(1.0F, config.e_min);
  const auto d = decompose_to_lightnn1(q, 2, config);
  const Tensor back = d.reconstruct(q.shape());
  for (std::int64_t i = 0; i < q.numel(); ++i) EXPECT_EQ(back[i], q[i]) << i;
}

TEST(DecomposeTest, WindowOutsideTheNormalRangeIsRefused) {
  const Tensor q(Shape{1, 1, 1, 2}, std::vector<float>{0.5F, 0.25F});
  for (const auto& [e_min, e_max] :
       {std::pair{-127, 0}, std::pair{-6, 128}, std::pair{0, -1}}) {
    quant::Pow2Config config;
    config.e_min = e_min;
    config.e_max = e_max;
    EXPECT_THROW((void)decompose_to_lightnn1(q, 2, config),
                 support::CheckFailure)
        << e_min << ", " << e_max;
  }
}

TEST(DecomposeTest, InvalidArgsThrow) {
  Tensor q(Shape{1, 1, 1, 1});
  EXPECT_THROW((void)decompose_to_lightnn1(q, 0, quant::Pow2Config{}),
               std::invalid_argument);
}

TEST(DecomposeTest, TermsGroupedByFilterAscending) {
  support::Rng rng(5);
  Tensor w = Tensor::randn(Shape{5, 1, 3, 3}, rng, 0.0F, 0.3F);
  Tensor q = quant::quantize_lightnn(w, 2, quant::Pow2Config{});
  const auto d = decompose_to_lightnn1(q, 2, quant::Pow2Config{});
  for (std::size_t i = 1; i < d.terms.size(); ++i) {
    EXPECT_GE(d.terms[i].filter, d.terms[i - 1].filter);
    if (d.terms[i].filter == d.terms[i - 1].filter) {
      EXPECT_EQ(d.terms[i].level, d.terms[i - 1].level + 1);
    }
  }
}

}  // namespace
}  // namespace flightnn::core
