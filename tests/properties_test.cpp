// Parameterized property tests (TEST_P sweeps) over the quantization,
// decomposition, inference and hardware-model invariants.

#include <gtest/gtest.h>

#include <cmath>

#include "core/decompose.hpp"
#include "core/flightnn_transform.hpp"
#include "hw/asic_model.hpp"
#include "hw/fpga_model.hpp"
#include "inference/shift_engine.hpp"
#include "quant/fixedpoint.hpp"
#include "quant/lightnn.hpp"
#include "support/rng.hpp"

namespace flightnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

// --- Pow2 rounding properties over exponent-range configs --------------------

struct Pow2Param {
  int e_min;
  int e_max;
  bool flush;
};

class Pow2Property : public ::testing::TestWithParam<Pow2Param> {};

TEST_P(Pow2Property, RoundingIsIdempotentAndRangeRespecting) {
  const auto p = GetParam();
  quant::Pow2Config config{p.e_min, p.e_max, p.flush};
  support::Rng rng(100 + p.e_min);
  for (int trial = 0; trial < 2000; ++trial) {
    const float x = static_cast<float>(rng.normal(0.0, 0.5));
    const quant::Pow2Term term = quant::round_to_pow2(x, config);
    const float v = term.value();
    // Idempotence: a representable value rounds to itself.
    EXPECT_FLOAT_EQ(quant::round_to_pow2(v, config).value(), v);
    if (term.sign != 0) {
      EXPECT_GE(term.exponent, p.e_min);
      EXPECT_LE(term.exponent, p.e_max);
      // Sign preservation.
      EXPECT_EQ(v > 0, x > 0);
    }
  }
}

TEST_P(Pow2Property, ResidualPeelingConverges) {
  // Each peeling step leaves |residual| <= |previous residual| (the nearest
  // power of two never overshoots by more than the value itself).
  const auto p = GetParam();
  quant::Pow2Config config{p.e_min, p.e_max, p.flush};
  const float min_magnitude = std::ldexp(1.0F, p.e_min);
  support::Rng rng(200 + p.e_max);
  for (int trial = 0; trial < 500; ++trial) {
    float residual = static_cast<float>(rng.normal(0.0, 0.4));
    float prev = std::fabs(residual);
    for (int step = 0; step < 4; ++step) {
      // Below the representable floor the clamped term overshoots (that is
      // exactly what flush_to_zero exists for), so the contraction property
      // only applies above it.
      if (!p.flush && std::fabs(residual) < 2.0F * min_magnitude) break;
      residual -= quant::round_to_pow2(residual, config).value();
      EXPECT_LE(std::fabs(residual), prev + 1e-7F);
      prev = std::fabs(residual);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ExponentRanges, Pow2Property,
    ::testing::Values(Pow2Param{-7, 0, true}, Pow2Param{-7, 0, false},
                      Pow2Param{-3, 2, true}, Pow2Param{-8, -1, true},
                      Pow2Param{-15, 7, false}));

// --- LightNN-k error decay over k --------------------------------------------

class LightNNProperty : public ::testing::TestWithParam<int> {};

TEST_P(LightNNProperty, QuantizationErrorBoundedAndRepresentable) {
  const int k = GetParam();
  const quant::Pow2Config config;
  support::Rng rng(300 + k);
  Tensor w = Tensor::randn(Shape{256}, rng, 0.0F, 0.25F);
  Tensor q = quant::quantize_lightnn(w, k, config);
  EXPECT_TRUE(quant::is_sum_of_pow2(q, k, config));
  // Log-domain rounding halves the worst-case relative error per level;
  // crude bound: error <= |w| * (2^(1/2) - 1)^k + flush threshold.
  const float flush = std::ldexp(1.0F, config.e_min - 1);
  const float factor = std::pow(std::sqrt(2.0F) - 1.0F, static_cast<float>(k));
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    const float bound =
        std::fabs(w[i]) * factor + flush * static_cast<float>(k) + 1e-6F;
    EXPECT_LE(std::fabs(w[i] - q[i]), bound) << "w=" << w[i] << " k=" << k;
  }
}

TEST_P(LightNNProperty, DecompositionRoundTrips) {
  const int k = GetParam();
  const quant::Pow2Config config;
  support::Rng rng(400 + k);
  Tensor w = Tensor::randn(Shape{8, 3, 3, 3}, rng, 0.0F, 0.25F);
  Tensor q = quant::quantize_lightnn(w, k, config);
  const auto d = core::decompose_to_lightnn1(q, k, config);
  EXPECT_LT(tensor::max_abs_diff(q, d.reconstruct(q.shape())), 1e-9F);
  for (int filter_k : d.filter_k) EXPECT_LE(filter_k, k);
}

INSTANTIATE_TEST_SUITE_P(Ks, LightNNProperty, ::testing::Values(1, 2, 3, 4));

// --- Shift engine bit-exactness over geometry and bit width -------------------

struct EngineParam {
  int k;
  std::int64_t stride;
  std::int64_t padding;
  int act_bits;
};

class ShiftEngineProperty : public ::testing::TestWithParam<EngineParam> {};

TEST_P(ShiftEngineProperty, MatchesRealArithmetic) {
  const auto p = GetParam();
  const quant::Pow2Config config;
  support::Rng rng(500 + p.k * 10 + p.act_bits);
  Tensor w = Tensor::randn(Shape{3, 2, 3, 3}, rng, 0.0F, 0.3F);
  Tensor wq = quant::quantize_lightnn(w, p.k, config);
  Tensor img = Tensor::randn(Shape{2, 7, 7}, rng);
  const auto qimg = inference::quantize_image(img, p.act_bits);

  inference::ShiftConv2d engine(wq, p.k, config, p.stride, p.padding);
  Tensor out = engine.run(qimg);
  Tensor ref = inference::reference_conv(wq, inference::dequantize(qimg),
                                         p.stride, p.padding);
  EXPECT_LT(tensor::max_abs_diff(out, ref), 1e-4F);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ShiftEngineProperty,
    ::testing::Values(EngineParam{1, 1, 0, 8}, EngineParam{1, 1, 1, 8},
                      EngineParam{1, 2, 1, 8}, EngineParam{2, 1, 1, 8},
                      EngineParam{2, 2, 0, 8}, EngineParam{2, 1, 1, 4},
                      EngineParam{3, 1, 1, 8}));

// --- FLightNN threshold monotonicity ------------------------------------------

class FLightNNThresholdProperty : public ::testing::TestWithParam<float> {};

TEST_P(FLightNNThresholdProperty, HigherThresholdsNeverIncreaseK) {
  const float t1 = GetParam();
  support::Rng rng(600);
  Tensor w = Tensor::randn(Shape{16, 27}, rng, 0.0F, 0.3F);

  core::FLightNNTransform low, high;
  low.set_thresholds({0.0F, t1});
  high.set_thresholds({0.0F, t1 + 0.2F});
  const auto k_low = low.filter_k(w);
  const auto k_high = high.filter_k(w);
  for (std::size_t i = 0; i < k_low.size(); ++i) {
    EXPECT_LE(k_high[i], k_low[i]) << "filter " << i;
  }
  EXPECT_LE(high.mean_k(w), low.mean_k(w));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, FLightNNThresholdProperty,
                         ::testing::Values(0.0F, 0.05F, 0.1F, 0.2F, 0.5F));

// --- Hardware model monotonicity over mean k ----------------------------------

class HwMeanKProperty : public ::testing::TestWithParam<double> {};

TEST_P(HwMeanKProperty, CostsAreMonotoneInMeanK) {
  const double mean_k = GetParam();
  const double higher = mean_k + 0.25;
  hw::LayerCost layer;
  layer.out_channels = layer.in_channels = 64;
  layer.kernel = 3;
  layer.in_h = layer.in_w = layer.out_h = layer.out_w = 8;

  const hw::AsicModel asic;
  EXPECT_LT(asic.mac_energy_pj(hw::QuantSpec::flightnn(mean_k)),
            asic.mac_energy_pj(hw::QuantSpec::flightnn(higher)));

  const hw::FpgaModel fpga;
  EXPECT_GT(fpga.evaluate(layer, hw::QuantSpec::flightnn(mean_k)).throughput,
            fpga.evaluate(layer, hw::QuantSpec::flightnn(higher)).throughput);
}

INSTANTIATE_TEST_SUITE_P(MeanKs, HwMeanKProperty,
                         ::testing::Values(0.5, 1.0, 1.25, 1.5, 1.75));

// --- Fixed-point quantization over bit widths ----------------------------------

class FixedPointProperty : public ::testing::TestWithParam<int> {};

TEST_P(FixedPointProperty, ErrorShrinksWithBits) {
  const int bits = GetParam();
  support::Rng rng(700 + bits);
  Tensor x = Tensor::randn(Shape{512}, rng);
  const quant::FixedPointConfig coarse{bits}, fine{bits + 2};
  quant::FixedPointTransform coarse_quantizer(coarse), fine_quantizer(fine);
  const float err_coarse =
      tensor::max_abs_diff(x, coarse_quantizer.forward(x));
  const float err_fine = tensor::max_abs_diff(x, fine_quantizer.forward(x));
  EXPECT_LE(err_fine, err_coarse);
  // Error bound: half an LSB of the chosen scale.
  const float scale =
      std::ldexp(1.0F, quant::scale_exponent(x.abs_max(), coarse.q_max()));
  EXPECT_LE(err_coarse, scale * 0.5F + 1e-6F);
}

INSTANTIATE_TEST_SUITE_P(Bits, FixedPointProperty,
                         ::testing::Values(2, 3, 4, 6, 8, 10, 12));

}  // namespace
}  // namespace flightnn
