#include "inference/shift_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/decompose.hpp"
#include "quant/fixedpoint.hpp"
#include "quant/lightnn.hpp"
#include "runtime/scratch_arena.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace flightnn::inference {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(QuantizeImageTest, RoundTripError) {
  support::Rng rng(1);
  Tensor img = Tensor::randn(Shape{3, 8, 8}, rng);
  const auto q = quantize_image(img, 8);
  Tensor back = dequantize(q);
  const float scale = std::ldexp(1.0F, q.scale_exp);
  EXPECT_LT(tensor::max_abs_diff(img, back), scale * 0.51F);
}

TEST(QuantizeImageTest, AcceptsBatchOfOne) {
  support::Rng rng(2);
  Tensor img = Tensor::randn(Shape{1, 3, 4, 4}, rng);
  const auto q = quantize_image(img, 8);
  EXPECT_EQ(q.shape, (Shape{3, 4, 4}));
}

TEST(QuantizeImageTest, RejectsBadShapes) {
  EXPECT_THROW((void)quantize_image(Tensor(Shape{2, 3, 4, 4}), 8),
               std::invalid_argument);
  EXPECT_THROW((void)quantize_image(Tensor(Shape{4, 4}), 8), std::invalid_argument);
  EXPECT_THROW((void)quantize_image(Tensor(Shape{1, 2, 2}), 1), std::invalid_argument);
}

TEST(QuantizeImageTest, ValuesFitBitWidth) {
  support::Rng rng(3);
  Tensor img = Tensor::randn(Shape{1, 6, 6}, rng, 0.0F, 10.0F);
  const auto q = quantize_image(img, 8);
  for (const auto v : q.values) {
    EXPECT_LE(v, 127);
    EXPECT_GE(v, -127);
  }
}

// fake_quantize rewrites its tensor in place with exactly the values of the
// two-step dequantize(quantize_image(x)), on the float path and on the
// exact path a pathologically tiny abs-max (scale below 2^-126) takes.
TEST(QuantizeImageTest, FakeQuantizeInPlaceMatchesTwoStep) {
  support::Rng rng(5);
  for (const float magnitude : {3.0F, 1e-38F, 1e-43F}) {
    for (const int bits : {4, 8}) {
      Tensor x = Tensor::randn(Shape{2, 5, 5}, rng) * magnitude;
      const Tensor expected = dequantize(quantize_image(x, bits));
      fake_quantize(x, bits);
      ASSERT_EQ(x.shape(), expected.shape());
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        EXPECT_EQ(x[i], expected[i])
            << "magnitude " << magnitude << " bits " << bits << " at " << i;
      }
    }
  }
}

// The scale exponent is defined for every finite abs-max. Where the float
// quotient abs_max / q_max is at least FLT_MIN it is ceil(log2) of that
// quotient, as the quantizers have always taken it; below that (a subnormal
// or zero quotient, whose float log2 loses bits or is -inf) it is the
// smallest e with abs_max <= q_max * 2^e. Swept over every float exponent at
// the mantissa edges and every bit width.
TEST(QuantizeImageTest, ScaleExponentIsDefinedForEveryFiniteAbsMax) {
  std::vector<float> abs_maxes = {std::numeric_limits<float>::max()};
  for (int e = -149; e <= 127; ++e) {
    const float p = std::ldexp(1.0F, e);
    for (const float a : {std::nextafter(p, 0.0F), p,
                          std::nextafter(p, std::numeric_limits<float>::max()),
                          1.5F * p}) {
      if (a > 0.0F) abs_maxes.push_back(a);
    }
  }
  int subnormal = 0;
  for (int bits = 2; bits <= 16; ++bits) {
    const std::int64_t q_max = (std::int64_t{1} << (bits - 1)) - 1;
    for (const float a : abs_maxes) {
      const int e = quant::scale_exponent(a, q_max);
      const float quotient = a / static_cast<float>(q_max);
      if (quotient >= std::numeric_limits<float>::min()) {
        EXPECT_EQ(e, static_cast<int>(std::ceil(std::log2(quotient))))
            << "abs-max " << a << " bits " << bits;
      } else {
        ++subnormal;
        const auto bound = static_cast<double>(q_max);
        EXPECT_LE(a, std::ldexp(bound, e))
            << "abs-max " << a << " bits " << bits;
        EXPECT_GT(a, std::ldexp(bound, e - 1))
            << "abs-max " << a << " bits " << bits;
      }
    }
  }
  EXPECT_GT(subnormal, 0);

  // The smallest subnormal at 8 bits: 2^-149 = 64 * 2^-155, and both the
  // two-step form and fake_quantize give it back, not the 0 a float scale
  // of 2^-155 underflows to.
  const float tiny = std::ldexp(1.0F, -149);
  const QuantizedActivations q = quantize_image(Tensor(Shape{1, 1, 1}, tiny), 8);
  EXPECT_EQ(q.scale_exp, -155);
  ASSERT_EQ(q.values.size(), 1U);
  EXPECT_EQ(q.values[0], 64);
  EXPECT_EQ(dequantize(q)[0], tiny);
  Tensor x(Shape{1}, tiny);
  fake_quantize(x, 8);
  EXPECT_EQ(x[0], tiny);
}

// At 2 bits {FLT_MAX, 1} takes scale 2^128, which a float cannot hold: the
// codes {1, 0} come back as {+inf, +0} through dequantize and fake_quantize,
// +inf being the correctly rounded 1 * 2^128 and +0 not 0 * inf = NaN.
TEST(QuantizeImageTest, TopOfTheRangeRoundsToInfinityAndZero) {
  const float big = std::numeric_limits<float>::max();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor x(Shape{2, 1, 1}, std::vector<float>{big, 1.0F});
  const QuantizedActivations q = quantize_image(x, 2);
  EXPECT_EQ(q.scale_exp, 128);
  EXPECT_EQ(q.values, (std::vector<std::int8_t>{1, 0}));
  const Tensor back = dequantize(q);
  fake_quantize(x, 2);
  for (const Tensor& t : {back, x}) {
    EXPECT_EQ(t[0], inf);
    EXPECT_EQ(t[1], 0.0F);
    EXPECT_FALSE(std::signbit(t[1]));
  }
}

// The conv's output scale 2^(scale_exp + e_min) underflows a float for a
// tiny input: 2^-140 quantizes to code 64 at 2^-146 (its quotient 2^-140 /
// 127 is below FLT_MIN, so quant::scale_exponent takes it in double), and a
// 1x1 conv with one weight of 1.0 (e_min -6) must give 64 * 2^-146 =
// 2^-140, what the reference conv on the dequantized input gives, not the 0
// of a float scale of 2^-152. A bias is added after the exact product.
TEST(ShiftConvTest, TinyInputScaleIsExact) {
  const quant::Pow2Config config;
  const Tensor wq(Shape{1, 1, 1, 1}, std::vector<float>{1.0F});
  const auto q = quantize_image(Tensor(Shape{1, 1, 1}, std::ldexp(1.0F, -140)), 8);
  ASSERT_EQ(q.scale_exp, -146);
  ASSERT_EQ(q.values[0], 64);
  const float want = std::ldexp(1.0F, -140);
  const Tensor ref = reference_conv(wq, dequantize(q), 1, 0);
  EXPECT_EQ(ref[0], want);
  EXPECT_EQ(ShiftConv2d(wq, 1, config, 1, 0).run(q)[0], want);
  // Negated filters (a 2^0 + 2^0 weight packs as -128) flip the exact
  // product's sign.
  const Tensor two(Shape{1, 1, 1, 1}, std::vector<float>{2.0F});
  EXPECT_EQ(ShiftConv2d(two, 2, config, 1, 0).run(q)[0], 2.0F * want);
  const Tensor bias(Shape{1}, std::vector<float>{0.5F});
  EXPECT_EQ(ShiftConv2d(wq, 1, config, 1, 0, bias).run(q)[0], want + 0.5F);
}

// The central claim: the shift-add integer engine is bit-exact against real
// arithmetic on the quantized operands.
TEST(ShiftConvTest, BitExactAgainstReferenceConv) {
  support::Rng rng(4);
  const quant::Pow2Config config;
  Tensor w = Tensor::randn(Shape{4, 3, 3, 3}, rng, 0.0F, 0.3F);
  Tensor wq = quant::quantize_lightnn(w, 2, config);
  Tensor img = Tensor::randn(Shape{3, 8, 8}, rng);
  const auto qimg = quantize_image(img, 8);
  Tensor deq = dequantize(qimg);

  ShiftConv2d engine(wq, 2, config, 1, 1);
  Tensor engine_out = engine.run(qimg);
  Tensor reference = reference_conv(wq, deq, 1, 1);
  // Both compute the same exact rational values; only fp32 storage rounds.
  EXPECT_LT(tensor::max_abs_diff(engine_out, reference), 1e-4F);
}

TEST(ShiftConvTest, BitExactWithStrideAndPadding) {
  support::Rng rng(5);
  const quant::Pow2Config config;
  Tensor w = Tensor::randn(Shape{2, 2, 3, 3}, rng, 0.0F, 0.3F);
  Tensor wq = quant::quantize_lightnn(w, 1, config);
  Tensor img = Tensor::randn(Shape{2, 9, 9}, rng);
  const auto qimg = quantize_image(img, 8);

  for (std::int64_t stride : {1, 2}) {
    for (std::int64_t padding : {0, 1}) {
      ShiftConv2d engine(wq, 1, config, stride, padding);
      Tensor out = engine.run(qimg);
      Tensor ref = reference_conv(wq, dequantize(qimg), stride, padding);
      EXPECT_EQ(out.shape(), ref.shape());
      EXPECT_LT(tensor::max_abs_diff(out, ref), 1e-4F)
          << "stride=" << stride << " padding=" << padding;
    }
  }
}

TEST(ShiftConvTest, BiasIsApplied) {
  const quant::Pow2Config config;
  Tensor wq(Shape{1, 1, 1, 1}, std::vector<float>{0.5F});
  Tensor bias(Shape{1}, std::vector<float>{2.5F});
  Tensor img(Shape{1, 2, 2}, 1.0F);
  const auto qimg = quantize_image(img, 8);
  ShiftConv2d engine(wq, 1, config, 1, 0, bias);
  Tensor out = engine.run(qimg);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_NEAR(out[i], 3.0F, 1e-5F);
  }
}

TEST(ShiftConvTest, OpCountsScaleWithK) {
  support::Rng rng(6);
  const quant::Pow2Config config;
  Tensor w = Tensor::randn(Shape{4, 2, 3, 3}, rng, 0.0F, 0.3F);
  Tensor wq1 = quant::quantize_lightnn(w, 1, config);
  Tensor wq2 = quant::quantize_lightnn(w, 2, config);
  ShiftConv2d e1(wq1, 1, config, 1, 1);
  ShiftConv2d e2(wq2, 2, config, 1, 1);
  const OpCounts counts1 = e1.census(8, 8);
  const OpCounts counts2 = e2.census(8, 8);
  EXPECT_GT(counts2.shifts, counts1.shifts);
  // k=2 at most doubles the single-shift workload.
  EXPECT_LE(counts2.shifts, 2 * counts1.shifts);
  EXPECT_EQ(counts1.shifts, counts1.adds);
}

TEST(ShiftConvTest, PrunedFiltersCostNothing) {
  const quant::Pow2Config config;
  Tensor wq(Shape{2, 1, 2, 2});  // both filters all-zero
  wq[0] = 0.25F;                 // one nonzero element in filter 0
  Tensor img(Shape{1, 4, 4}, 1.0F);
  const auto qimg = quantize_image(img, 8);
  ShiftConv2d engine(wq, 2, config, 1, 0);
  const OpCounts counts = engine.census(4, 4);
  Tensor out = engine.run(qimg);
  // Filter 1 contributes no ops and produces zeros.
  EXPECT_EQ(counts.shifts, 9);  // 3x3 output positions x 1 element
  for (std::int64_t i = 9; i < 18; ++i) EXPECT_FLOAT_EQ(out[i], 0.0F);
}

TEST(ShiftConvTest, TermCountMatchesDecomposition) {
  support::Rng rng(7);
  const quant::Pow2Config config;
  Tensor w = Tensor::randn(Shape{8, 2, 3, 3}, rng, 0.0F, 0.3F);
  Tensor wq = quant::quantize_lightnn(w, 2, config);
  ShiftConv2d engine(wq, 2, config, 1, 1);
  const auto d = core::decompose_to_lightnn1(wq, 2, config);
  EXPECT_EQ(engine.term_count(), d.term_count());
}

TEST(ShiftConvTest, InputValidation) {
  const quant::Pow2Config config;
  Tensor wq(Shape{1, 2, 3, 3});
  ShiftConv2d engine(wq, 1, config, 1, 1);
  QuantizedActivations wrong;
  wrong.shape = Shape{3, 8, 8};  // 3 channels, engine expects 2
  wrong.values.assign(192, 0);
  EXPECT_THROW((void)engine.run(wrong), std::invalid_argument);

  EXPECT_THROW(ShiftConv2d(Tensor(Shape{2, 2}), 1, config, 1, 0),
               std::invalid_argument);
  Tensor bad_bias(Shape{3});
  EXPECT_THROW(ShiftConv2d(wq, 1, config, 1, 0, bad_bias), std::invalid_argument);
}

// The float entry the compiled network's shift ops call quantizes its input
// into the kConvCodes arena slot and gives the bytes of quantize_image then
// run(), on both tiles, at every stride and padding and at 4 and 8 bits. Its
// scratch is what scratch_bytes reports, and it refuses the channel counts
// and bit widths run() and quantize_image refuse.
TEST(ShiftConvTest, FloatEntryMatchesQuantizeThenRun) {
  support::Rng rng(12);
  const quant::Pow2Config config;
  const Tensor wq = quant::quantize_lightnn(
      Tensor::randn(Shape{20, 5, 3, 3}, rng, 0.0F, 0.3F), 2, config);
  const Tensor img = Tensor::randn(Shape{5, 9, 11}, rng);
  runtime::ScratchArena& arena = runtime::ScratchArena::current();
  for (const std::int64_t stride : {1, 2}) {
    for (const std::int64_t padding : {0, 1}) {
      const ShiftConv2d engine(wq, 2, config, stride, padding);
      const ConvScratchBytes scratch = engine.scratch_bytes(9, 11);
      EXPECT_EQ(scratch.codes, 5U * 9U * 11U);
      for (const int bits : {4, 8}) {
        const QuantizedActivations q = quantize_image(img, bits);
        for (const ConvTile tile : {ConvTile::kColumn, ConvTile::kFilter}) {
          arena.trim();
          const Tensor expected = engine.run(q, tile);
          const Tensor got = engine.run(img, bits, tile);
          ASSERT_EQ(got.shape(), expected.shape());
          EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                                static_cast<std::size_t>(got.numel()) *
                                    sizeof(float)),
                    0)
              << "stride " << stride << " padding " << padding << " bits "
              << bits << " tile " << conv_tile_name(tile);
          EXPECT_EQ(arena.footprint_bytes(),
                    scratch.offsets + scratch.input + scratch.codes);
        }
      }
    }
  }
  const ShiftConv2d engine(wq, 2, config, 1, 1);
  EXPECT_THROW((void)engine.run(Tensor(Shape{4, 9, 11}), 8, ConvTile::kColumn),
               support::CheckFailure);
  EXPECT_THROW((void)engine.run(img, 9, ConvTile::kColumn),
               support::CheckFailure);
  EXPECT_THROW((void)engine.run(img, 1, ConvTile::kColumn),
               support::CheckFailure);
}

// run() takes the scale exponents quant::scale_exponent gives 2- to 8-bit
// codes, [-155, 128], and refuses a hand-built one outside them before it
// forms scale_exp + e_min, which overflows an int at INT_MIN. At the ends,
// code 64 of a 1.0 weight gives 2^-149 and +inf, as the reference conv of
// the dequantized input does.
TEST(ShiftConvTest, RefusesScaleExponentsNoQuantizerGives) {
  const quant::Pow2Config config;
  const Tensor wq(Shape{1, 1, 1, 1}, std::vector<float>{1.0F});
  const ShiftConv2d engine(wq, 1, config, 1, 0);
  QuantizedActivations q;
  q.shape = Shape{1, 1, 1};
  q.values = {64};
  for (const int e : {-155, 128}) {
    q.scale_exp = e;
    EXPECT_EQ(engine.run(q)[0], reference_conv(wq, dequantize(q), 1, 0)[0])
        << "scale_exp " << e;
  }
  for (const int e : {std::numeric_limits<int>::min(), -156, 129,
                      std::numeric_limits<int>::max()}) {
    q.scale_exp = e;
    EXPECT_THROW((void)engine.run(q), support::CheckFailure)
        << "scale_exp " << e;
  }
}

TEST(ReferenceConvTest, KnownValue) {
  Tensor w(Shape{1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor img(Shape{1, 2, 2}, std::vector<float>{1, 1, 1, 1});
  Tensor out = reference_conv(w, img, 1, 0);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 1}));
  EXPECT_FLOAT_EQ(out[0], 10.0F);
}

}  // namespace
}  // namespace flightnn::inference
