// Tests for the stateless / normalization layers: BatchNorm2d, LeakyReLU,
// ActivationQuant, MaxPool2d, GlobalAvgPool, Flatten.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gradient_check.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/pooling.hpp"
#include "quant/fixedpoint.hpp"

namespace flightnn::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

// --- BatchNorm2d ------------------------------------------------------------

TEST(BatchNormTest, NormalizesPerChannelInTraining) {
  support::Rng rng(1);
  BatchNorm2d bn(2);
  Tensor x = Tensor::randn(Shape{4, 2, 5, 5}, rng, 3.0F, 2.0F);
  Tensor y = bn.forward(x, true);
  // Each channel of the output should be ~N(0, 1) (gamma=1, beta=0).
  for (std::int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sum_sq = 0.0;
    std::int64_t count = 0;
    for (std::int64_t n = 0; n < 4; ++n) {
      for (std::int64_t i = 0; i < 25; ++i) {
        const float v = y[(n * 2 + c) * 25 + i];
        sum += v;
        sum_sq += static_cast<double>(v) * v;
        ++count;
      }
    }
    const double mean = sum / static_cast<double>(count);
    const double var = sum_sq / static_cast<double>(count) - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, EvalUsesRunningStatistics) {
  support::Rng rng(2);
  BatchNorm2d bn(1);
  // Train on many batches so running stats converge towards (3, 4).
  for (int i = 0; i < 200; ++i) {
    Tensor x = Tensor::randn(Shape{8, 1, 4, 4}, rng, 3.0F, 2.0F);
    (void)bn.forward(x, true);
  }
  // A constant input at the running mean should map to ~beta = 0.
  Tensor probe(Shape{1, 1, 2, 2}, 3.0F);
  Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y[0], 0.0F, 0.15F);
}

TEST(BatchNormTest, GammaBetaApply) {
  BatchNorm2d bn(1);
  bn.gamma().value[0] = 2.0F;
  bn.beta().value[0] = 5.0F;
  support::Rng rng(3);
  Tensor x = Tensor::randn(Shape{4, 1, 4, 4}, rng);
  Tensor y = bn.forward(x, true);
  double sum = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) sum += y[i];
  EXPECT_NEAR(sum / static_cast<double>(y.numel()), 5.0, 1e-3);
}

TEST(BatchNormTest, InputGradient) {
  support::Rng rng(4);
  BatchNorm2d bn(2);
  Tensor x = Tensor::randn(Shape{3, 2, 3, 3}, rng);
  testing::check_input_gradient(bn, x, 63, 1e-2F, 3e-2F);
}

TEST(BatchNormTest, GammaBetaGradients) {
  support::Rng rng(5);
  BatchNorm2d bn(2);
  Tensor x = Tensor::randn(Shape{3, 2, 3, 3}, rng);
  testing::check_param_gradient(bn, x, bn.gamma(), 64, 1e-2F, 3e-2F);
  testing::check_param_gradient(bn, x, bn.beta(), 65, 1e-2F, 3e-2F);
}

TEST(BatchNormTest, BadShapeThrows) {
  BatchNorm2d bn(3);
  EXPECT_THROW((void)bn.forward(Tensor(Shape{1, 2, 4, 4}), true),
               std::invalid_argument);
  EXPECT_THROW(BatchNorm2d(0), std::invalid_argument);
}

// --- LeakyReLU ----------------------------------------------------------------

TEST(LeakyReLUTest, ForwardValues) {
  LeakyReLU act(0.1F);
  Tensor x(Shape{4}, std::vector<float>{-2.0F, -0.5F, 0.0F, 3.0F});
  Tensor y = act.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], -0.2F);
  EXPECT_FLOAT_EQ(y[1], -0.05F);
  EXPECT_FLOAT_EQ(y[2], 0.0F);
  EXPECT_FLOAT_EQ(y[3], 3.0F);
}

// The slope contract the compiled network's leaky-ReLU op shares: [0, 1),
// where the branch-free max(v, slope * v) is the ternary bit for bit.
TEST(LeakyReLUTest, SlopeOutsideZeroOneIsRejected) {
  EXPECT_THROW(LeakyReLU(-0.1F), std::invalid_argument);
  EXPECT_THROW(LeakyReLU(1.0F), std::invalid_argument);
  EXPECT_NO_THROW(LeakyReLU(0.0F));
  EXPECT_NO_THROW(LeakyReLU(std::nextafter(1.0F, 0.0F)));
}

TEST(LeakyReLUTest, Gradient) {
  LeakyReLU act(0.01F);
  // Keep inputs away from the kink at 0.
  Tensor x(Shape{4}, std::vector<float>{-2.0F, -0.5F, 0.7F, 3.0F});
  testing::check_input_gradient(act, x, 66);
}

TEST(LeakyReLUTest, GradientSlopes) {
  LeakyReLU act(0.25F);
  Tensor x(Shape{2}, std::vector<float>{-1.0F, 1.0F});
  (void)act.forward(x, true);
  Tensor g(Shape{2}, 1.0F);
  Tensor gi = act.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 0.25F);
  EXPECT_FLOAT_EQ(gi[1], 1.0F);
}

// --- ActivationQuant ---------------------------------------------------------

TEST(ActivationQuantTest, OutputIsQuantized) {
  ActivationQuant aq(8);
  support::Rng rng(6);
  Tensor x = Tensor::randn(Shape{1, 3, 8, 8}, rng);
  Tensor y = aq.forward(x, false);
  const int e = quant::scale_exponent(x.abs_max(), 127);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    const float ratio = std::ldexp(y[i], -e);
    EXPECT_FLOAT_EQ(ratio, std::nearbyint(ratio));
    EXPECT_LE(std::fabs(ratio), 127.0F);
  }
}

TEST(ActivationQuantTest, RangeAndGranularity) {
  support::Rng rng(27);
  const Tensor x = Tensor::randn(Shape{200}, rng, 0.0F, 1.0F);
  const Tensor q = ActivationQuant(8).forward(x, false);
  EXPECT_LE(q.abs_max(), x.abs_max() * 1.01F + 1e-6F);
  // 8-bit: error bounded by half the scale step.
  const float scale = std::ldexp(1.0F, quant::scale_exponent(x.abs_max(), 127));
  EXPECT_LT(tensor::max_abs_diff(x, q), scale * 0.51F);
}

// Scales a float cannot hold, in both modes: at 8 bits {2^-126, -2^-127}
// are codes {64, -32} at 2^-132 and 2^-149 is code 64 at 2^-155, so each
// comes back as itself; at 2 bits {FLT_MAX, 1} at 2^128 comes back as
// {+inf, +0}, +inf being the correctly rounded 1 * 2^128.
TEST(ActivationQuantTest, ScalesPastTheFloatRangeAreExact) {
  const float min_normal = std::numeric_limits<float>::min();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float big = std::numeric_limits<float>::max();
  const float inf = std::numeric_limits<float>::infinity();
  struct Case {
    int bits;
    std::vector<float> x, want;
  };
  const std::vector<Case> cases = {
      {8, {min_normal, -min_normal / 2}, {min_normal, -min_normal / 2}},
      {8, {tiny, -tiny, 0.0F}, {tiny, -tiny, 0.0F}},
      {2, {big, 1.0F}, {inf, 0.0F}},
  };
  for (const Case& c : cases) {
    for (const bool training : {false, true}) {
      ActivationQuant aq(c.bits);
      const Tensor x(Shape{static_cast<std::int64_t>(c.x.size())}, c.x);
      const Tensor y = aq.forward(x, training);
      for (std::int64_t i = 0; i < y.numel(); ++i) {
        const float want = c.want[static_cast<std::size_t>(i)];
        EXPECT_EQ(std::memcmp(&want, y.data() + i, sizeof want), 0)
            << "bits " << c.bits << " training " << training << " x "
            << x[i] << ": " << y[i] << " vs " << want;
      }
    }
  }
}

// The training mask is |x * 2^-e| > q_max at every scale, so backward passes
// exactly the unsaturated gradients. At 2^-149 nothing saturates (e = -155,
// below a float scale's range); at abs-max (127 + 2^-17) * 2^-127 the
// quotient lies just above 2^-127, below FLT_MIN, where scale_exponent
// takes it in double: e = -126, and the peak does not saturate either (a
// float quotient rounds down to 2^-127, which gave e = -127 and saturated
// it).
TEST(ActivationQuantTest, MaskAtTinyScalesIsTheSaturatedElements) {
  const float tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<std::vector<float>> inputs = {
      {tiny, -tiny, 0.0F, tiny},
      {std::ldexp(127.0F + std::ldexp(1.0F, -17), -127), std::ldexp(1.0F, -130),
       -std::ldexp(1.0F, -127), std::ldexp(-126.0F, -127)},
  };
  int saturated = 0;
  std::vector<int> exponents;
  for (const auto& values : inputs) {
    ActivationQuant aq(8);
    const Tensor x(Shape{static_cast<std::int64_t>(values.size())}, values);
    (void)aq.forward(x, true);
    const Tensor grad = aq.backward(Tensor(x.shape(), 1.0F));
    const int e = quant::scale_exponent(x.abs_max(), 127);
    exponents.push_back(e);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      const bool over =
          std::fabs(std::ldexp(static_cast<long double>(x[i]), -e)) > 127;
      saturated += over ? 1 : 0;
      EXPECT_EQ(grad[i], over ? 0.0F : 1.0F) << "x " << x[i] << " e " << e;
    }
  }
  EXPECT_EQ(exponents, (std::vector<int>{-155, -126}));
  EXPECT_EQ(saturated, 0);
}

TEST(ActivationQuantTest, StraightThroughGradientInRange) {
  ActivationQuant aq(8);
  support::Rng rng(7);
  Tensor x = Tensor::randn(Shape{10}, rng);
  (void)aq.forward(x, true);
  Tensor g = Tensor::randn(Shape{10}, rng);
  Tensor gi = aq.backward(g);
  // Dynamic scaling covers abs-max, so nothing saturates: STE passes all.
  EXPECT_LT(tensor::max_abs_diff(gi, g), 1e-9F);
}

TEST(ActivationQuantTest, LowBitsCoarser) {
  support::Rng rng(8);
  Tensor x = Tensor::randn(Shape{1000}, rng);
  ActivationQuant a2(2), a8(8);
  const float err2 = tensor::max_abs_diff(a2.forward(x, false), x);
  const float err8 = tensor::max_abs_diff(a8.forward(x, false), x);
  EXPECT_GT(err2, err8);
}

TEST(ActivationQuantTest, InvalidBitsThrow) {
  EXPECT_THROW(ActivationQuant(1), std::invalid_argument);
  EXPECT_THROW(ActivationQuant(17), std::invalid_argument);
}

// --- MaxPool2d ----------------------------------------------------------------

TEST(MaxPoolTest, ForwardSelectsMaxima) {
  MaxPool2d pool(2);
  Tensor x(Shape{1, 1, 2, 4},
           std::vector<float>{1, 5, 2, 0, 3, -1, 7, 4});
  Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 5.0F);
  EXPECT_FLOAT_EQ(y[1], 7.0F);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 9, 3, 2});
  (void)pool.forward(x, true);
  Tensor g(Shape{1, 1, 1, 1}, 10.0F);
  Tensor gi = pool.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 0.0F);
  EXPECT_FLOAT_EQ(gi[1], 10.0F);
  EXPECT_FLOAT_EQ(gi[2], 0.0F);
  EXPECT_FLOAT_EQ(gi[3], 0.0F);
}

TEST(MaxPoolTest, GradientFiniteDifference) {
  MaxPool2d pool(2);
  support::Rng rng(9);
  // Distinct values so the argmax is stable under the probe epsilon.
  Tensor x(Shape{1, 2, 4, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(i % 7) + 0.1F * static_cast<float>(i);
  }
  testing::check_input_gradient(pool, x, 67);
}

TEST(MaxPoolTest, WindowLargerThanInputThrows) {
  MaxPool2d pool(4);
  Tensor x(Shape{1, 1, 2, 2});
  EXPECT_THROW((void)pool.forward(x, false), std::invalid_argument);
}

// --- GlobalAvgPool -------------------------------------------------------------

TEST(GlobalAvgPoolTest, AveragesPerChannel) {
  GlobalAvgPool gap;
  Tensor x(Shape{1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y = gap.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.5F);
  EXPECT_FLOAT_EQ(y[1], 10.0F);
}

TEST(GlobalAvgPoolTest, Gradient) {
  GlobalAvgPool gap;
  support::Rng rng(10);
  Tensor x = Tensor::randn(Shape{2, 3, 3, 3}, rng);
  testing::check_input_gradient(gap, x, 68);
}

// --- Flatten --------------------------------------------------------------------

TEST(FlattenTest, ShapeRoundTrip) {
  Flatten flat;
  support::Rng rng(11);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 5}, rng);
  Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  Tensor g = Tensor::randn(y.shape(), rng);
  Tensor gi = flat.backward(g);
  EXPECT_EQ(gi.shape(), x.shape());
  EXPECT_LT(tensor::max_abs_diff(gi, g.reshaped(x.shape())), 1e-9F);
}

}  // namespace
}  // namespace flightnn::nn
