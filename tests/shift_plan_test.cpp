// Property tests for the int8 pack, the stored form of a shift layer's
// weights: over randomized layer geometries, k_max values and pruning
// fractions (including all-pruned and fully-dense extremes), the adopted
// plan must produce BIT-IDENTICAL outputs to the pre-plan term walk (the
// oracle in term_walk_oracle.hpp) and the engine's analytic census must
// equal the op counts the term walk tallies accumulate by accumulate.
// compile_conv must write the words, live filters and negated bytes the
// decomposition route writes, and adoption must derive from the words the
// entries, per-tap counts and term count the decomposition gives -- on
// random layers and on every shift layer of the eight Table-1 networks.
// What the pack cannot hold is refused by compile_conv, and what the
// kernels cannot run, or a plan that lies about itself, by adoption, with
// CheckFailure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/flightnn_transform.hpp"
#include "core/quantize_model.hpp"
#include "inference/shift_engine.hpp"
#include "inference/shift_plan.hpp"
#include "models/networks.hpp"
#include "nn/conv2d.hpp"
#include "quant/lightnn.hpp"
#include "runtime/thread_pool.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/tensor.hpp"
#include "term_walk_oracle.hpp"

namespace flightnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

void expect_bitwise_equal(const Tensor& expected, const Tensor& actual,
                          const char* what) {
  ASSERT_EQ(expected.shape(), actual.shape()) << what;
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        static_cast<std::size_t>(expected.numel()) *
                            sizeof(float)),
            0)
      << what << ": plan output differs from the term walk";
}

// Zero out a fraction of whole filters (the paper's filter pruning). The
// first `pruned` filters are zeroed so fraction 1.0 reliably covers the
// all-pruned extreme and 0.0 the fully-dense one.
void prune_filters(Tensor& weights, double fraction) {
  const std::int64_t filters = weights.shape()[0];
  const std::int64_t filter_numel = weights.numel() / filters;
  const auto pruned =
      static_cast<std::int64_t>(fraction * static_cast<double>(filters) + 0.5);
  for (std::int64_t f = 0; f < pruned && f < filters; ++f) {
    float* row = weights.data() + f * filter_numel;
    for (std::int64_t i = 0; i < filter_numel; ++i) row[i] = 0.0F;
  }
}

// Whether every filter of `wq` fits the engine's int8 pack as it is or
// negated: its weights, in units of 2^e_min, lie in [-128, 127] or
// [-127, 128]. compile_conv refuses any other filter.
bool fits_int8_pack(const Tensor& wq, const quant::Pow2Config& config) {
  const std::int64_t filters = wq.shape()[0];
  const std::int64_t row = wq.numel() / filters;
  for (std::int64_t f = 0; f < filters; ++f) {
    double lo = 0.0;
    double hi = 0.0;
    for (std::int64_t i = 0; i < row; ++i) {
      const double units = std::ldexp(wq[f * row + i], -config.e_min);
      lo = std::min(lo, units);
      hi = std::max(hi, units);
    }
    if (!((lo >= -128.0 && hi <= 127.0) || (lo >= -127.0 && hi <= 128.0))) {
      return false;
    }
  }
  return true;
}

quant::Pow2Config window(int e_min, int e_max) {
  quant::Pow2Config config;
  config.e_min = e_min;
  config.e_max = e_max;
  return config;
}

// The kernel of OIHW weights, 1 for a linear layer's [out, in].
std::int64_t kernel_of(const Tensor& wq) {
  return wq.shape().rank() == 4 ? wq.shape()[2] : 1;
}

// Adopts a compiled plan of `wq` (stride 1, padding 0); throws CheckFailure
// where adoption refuses it.
inference::ShiftConv2d adopt(inference::CompiledPlan compiled, const Tensor& wq,
                             const quant::Pow2Config& config) {
  const Shape& s = wq.shape();
  const inference::ShiftConvSpec spec{s[0], s[1], kernel_of(wq),
                                      1,    0,    compiled.term_count};
  return {std::move(compiled.plan), spec, config};
}

// compile_conv against the decomposition route (decompose_to_lightnn1, then
// each weight summed back from its terms and packed): the same live
// filters, words, negated bytes, entry count and term count; and the
// adopted plan's per-tap entries and term count, derived from the words,
// against the decomposition's. Returns whether both lowered; where one
// refuses, the other must too, or adoption must refuse what it lowered.
// `taps`, when given, receives the decomposition's entries per tap.
bool expect_reference_lowering(const Tensor& wq, int k_max,
                               const quant::Pow2Config& config,
                               const std::string& what,
                               std::vector<std::int64_t>* taps = nullptr) {
  std::optional<inference::CompiledPlan> want;
  std::vector<std::int64_t> want_taps;
  try {
    want = inference::oracle::reference_compile_conv(wq, k_max, config,
                                                     &want_taps);
  } catch (const support::CheckFailure&) {
  }
  std::optional<inference::CompiledPlan> got;
  try {
    got = inference::ShiftPlan::compile_conv(wq, k_max, config);
  } catch (const support::CheckFailure&) {
  }
  if (!got || !want) {
    EXPECT_FALSE(want) << what << ": compile_conv refused what the reference "
                       << "lowers";
    if (got) {
      EXPECT_THROW((void)adopt(std::move(*got), wq, config),
                   support::CheckFailure)
          << what << ": lowered and adopted what the reference refuses";
    }
    return false;
  }
  const inference::ShiftPlan& g = got->plan;
  const inference::ShiftPlan& w = want->plan;
  EXPECT_EQ(got->term_count, want->term_count) << what;
  EXPECT_EQ(g.entries(), w.entries()) << what;
  EXPECT_EQ(g.k_max, k_max) << what;
  EXPECT_EQ(g.live, w.live) << what;
  EXPECT_EQ(g.negated, w.negated) << what;
  EXPECT_EQ(g.words, w.words) << what;
  const inference::AdoptedPlan adopted = inference::adopt_plan(
      got->plan, wq.shape()[0], wq.shape()[1], kernel_of(wq), config);
  EXPECT_EQ(adopted.term_count, want->term_count) << what;
  if (!w.live.empty()) {
    EXPECT_EQ(adopted.tap_entries, want_taps) << what;
  }
  if (taps != nullptr) *taps = std::move(want_taps);
  return true;
}

TEST(ShiftPlanPropertyTest, ConvPlanMatchesReferenceAcrossRandomConfigs) {
  const quant::Pow2Config config;
  const double kPruneFractions[] = {0.0, 0.35, 0.5, 1.0};
  support::Rng rng(20260805);
  int cases = 0;
  int refused = 0;
  for (const int k_max : {1, 2, 3}) {
    for (const std::int64_t kernel : {1, 3, 5}) {
      for (const std::int64_t stride : {1, 2, 3}) {
        for (const std::int64_t padding : {0, 1, 2}) {
          const double fraction =
              kPruneFractions[cases % 4];  // cycle the pruning extremes
          ++cases;
          const std::int64_t in_ch = 1 + static_cast<std::int64_t>(
                                             rng.uniform_index(3));
          const std::int64_t out_ch = 2 + static_cast<std::int64_t>(
                                              rng.uniform_index(5));
          const std::int64_t in_h = kernel + static_cast<std::int64_t>(
                                                 rng.uniform_index(6));
          const std::int64_t in_w = kernel + static_cast<std::int64_t>(
                                                 rng.uniform_index(6));

          Tensor w = Tensor::randn(Shape{out_ch, in_ch, kernel, kernel}, rng);
          Tensor wq = quant::quantize_lightnn(w, k_max, config);
          prune_filters(wq, fraction);
          const Tensor image = Tensor::randn(Shape{in_ch, in_h, in_w}, rng);
          const std::string what = "k=" + std::to_string(k_max) +
                                   " kernel=" + std::to_string(kernel);
          if (!fits_int8_pack(wq, config)) {
            ++refused;
            EXPECT_THROW((void)inference::ShiftConv2d(wq, k_max, config,
                                                      stride, padding),
                         support::CheckFailure)
                << what << ": weights int8 holds neither as they are nor "
                << "negated must be refused";
            continue;
          }

          const inference::ShiftConv2d engine(wq, k_max, config, stride,
                                              padding);
          EXPECT_TRUE(expect_reference_lowering(wq, k_max, config, what));
          const auto q = inference::quantize_image(image, 8);

          inference::OpCounts ref_counts{};
          const Tensor got = engine.run(q);
          const Tensor want =
              inference::oracle::TermWalkConv2d(wq, k_max, config, stride,
                                                padding)
                  .run(q, &ref_counts);
          expect_bitwise_equal(want, got, "conv");
          const inference::OpCounts plan_counts = engine.census(in_h, in_w);
          EXPECT_EQ(plan_counts.shifts, ref_counts.shifts)
              << what << " stride=" << stride << " pad=" << padding
              << " prune=" << fraction;
          EXPECT_EQ(plan_counts.adds, ref_counts.adds);
        }
      }
    }
  }
  // These unit-variance weights cover both sides of the pack's bound.
  EXPECT_GT(refused, 0);
  EXPECT_LT(refused, cases);
}

// The conv plan path parallelizes across filters; its agreement with the
// serial reference must hold at every thread count (including a
// non-power-of-two).
TEST(ShiftPlanPropertyTest, ConvPlanThreadCountInvariant) {
  const quant::Pow2Config config;
  support::Rng rng(7);
  // At standard deviation 0.5 every filter fits the int8 pack; at 1 most
  // hold both +-2 (+-128 units), which compile_conv refuses.
  Tensor w = Tensor::randn(Shape{9, 3, 3, 3}, rng, 0.0F, 0.5F);
  Tensor wq = quant::quantize_lightnn(w, 2, config);
  prune_filters(wq, 0.3);
  ASSERT_TRUE(fits_int8_pack(wq, config));
  const inference::ShiftConv2d engine(wq, 2, config, 1, 1);
  const Tensor image = Tensor::randn(Shape{3, 12, 12}, rng);
  const auto q = inference::quantize_image(image, 8);

  runtime::set_num_threads(1);
  const Tensor reference =
      inference::oracle::TermWalkConv2d(wq, 2, config, 1, 1).run(q);
  for (const int threads : {1, 2, 4, 7}) {
    runtime::set_num_threads(threads);
    expect_bitwise_equal(reference, engine.run(q), "conv@threads");
  }
  runtime::set_num_threads(1);
}

TEST(ShiftPlanPropertyTest, LinearPlanMatchesReferenceAcrossRandomConfigs) {
  const quant::Pow2Config config;
  const double kPruneFractions[] = {0.0, 0.5, 1.0};
  support::Rng rng(99);
  int cases = 0;
  int refused = 0;
  for (const int k_max : {1, 2, 3}) {
    for (const double fraction : kPruneFractions) {
      const std::int64_t in_features =
          3 + static_cast<std::int64_t>(rng.uniform_index(30));
      const std::int64_t out_features =
          1 + static_cast<std::int64_t>(rng.uniform_index(8));
      Tensor w = Tensor::randn(Shape{out_features, in_features}, rng);
      Tensor wq = quant::quantize_lightnn(w, k_max, config);
      prune_filters(wq, fraction);
      const Tensor x = Tensor::randn(Shape{in_features}, rng);
      ++cases;
      if (!fits_int8_pack(wq, config)) {
        ++refused;
        EXPECT_THROW((void)inference::oracle::linear_engine(wq, k_max, config),
                     support::CheckFailure)
            << "k=" << k_max << ": weights int8 holds neither as they are "
            << "nor negated must be refused";
        continue;
      }

      const inference::ShiftConv2d engine =
          inference::oracle::linear_engine(wq, k_max, config);
      EXPECT_TRUE(expect_reference_lowering(
          wq, k_max, config, "linear k=" + std::to_string(k_max)));
      const auto q = inference::quantize_image(
          x.reshaped(Shape{x.numel(), 1, 1}), 8);

      inference::OpCounts ref_counts{};
      const Tensor got = inference::oracle::run_linear(engine, q);
      const Tensor want =
          inference::oracle::TermWalkLinear(wq, k_max, config)
              .run(q, &ref_counts);
      expect_bitwise_equal(want, got, "linear");
      const inference::OpCounts plan_counts = engine.census(1, 1);
      EXPECT_EQ(plan_counts.shifts, ref_counts.shifts)
          << "k=" << k_max << " prune=" << fraction;
      EXPECT_EQ(plan_counts.adds, ref_counts.adds);
    }
  }
  EXPECT_LT(refused, cases);
}

// A pack holds a byte for every weight of a live filter, so a filter with
// one nonzero weight in 576 costs its full 144 words: stored words bound
// what adoption allocates, up to the zero padding of its last block of 16
// filters, and no ratio of words to entries is refused.
TEST(ShiftPlanPropertyTest, SparseLiveFiltersCompileAndRun) {
  const quant::Pow2Config config;
  const float unit = std::ldexp(1.0F, config.e_min);
  Tensor wq = Tensor::zeros(Shape{8, 64, 3, 3});
  const int values[] = {1, -3, 64, -128, 24, 96, -5, 128};
  for (std::int64_t f = 0; f < 8; ++f) {
    wq[f * 576 + (f * 73) % 576] =
        static_cast<float>(values[static_cast<std::size_t>(f)]) * unit;
  }
  ASSERT_TRUE(expect_reference_lowering(wq, 2, config, "sparse"));
  const inference::ShiftConv2d engine(wq, 2, config, 1, 1);
  EXPECT_EQ(engine.adopted().plan.live.size(), 8U);
  EXPECT_EQ(engine.adopted().plan.words.size(), 16U * 16U * 9U);
  support::Rng rng(11);
  const auto q = inference::quantize_image(
      Tensor::randn(Shape{64, 6, 7}, rng), 8);
  inference::OpCounts ref_counts{};
  const inference::oracle::TermWalkConv2d walk(wq, 2, config, 1, 1);
  expect_bitwise_equal(walk.run(q, &ref_counts), engine.run(q), "sparse");
  EXPECT_EQ(engine.census(6, 7).shifts, ref_counts.shifts);
}

// LightNN-1, -2 and -3 weights over kernels 1, 3 and 5, channel counts that
// leave a partial four-channel group, half-pruned layers and a linear layer,
// in three exponent windows.
TEST(ShiftPlanPropertyTest, CompileConvEqualsReferenceLoweringForLightNN) {
  support::Rng rng(2026);
  int lowered = 0;
  int cases = 0;
  for (const quant::Pow2Config& config :
       {window(-6, 0), window(-7, 0), window(-3, 0)}) {
    for (const int k : {1, 2, 3}) {
      for (const std::int64_t kernel : {1, 3, 5}) {
        for (const std::int64_t in_ch : {3, 5, 8}) {
          Tensor w = Tensor::randn(Shape{6, in_ch, kernel, kernel}, rng, 0.0F,
                                   0.3F);
          Tensor wq = quant::quantize_lightnn(w, k, config);
          prune_filters(wq, in_ch == 5 ? 0.5 : 0.0);
          const std::string what = "k=" + std::to_string(k) + " kernel=" +
                                   std::to_string(kernel) + " in=" +
                                   std::to_string(in_ch) + " window=[" +
                                   std::to_string(config.e_min) + ", 0]";
          ++cases;
          lowered += expect_reference_lowering(wq, k, config, what) ? 1 : 0;
        }
      }
      Tensor wl = Tensor::randn(Shape{7, 13}, rng, 0.0F, 0.3F);
      Tensor wlq = quant::quantize_lightnn(wl, k, config);
      ++cases;
      lowered += expect_reference_lowering(wlq, k, config,
                                           "linear k=" + std::to_string(k))
                     ? 1
                     : 0;
    }
  }
  // Window [-7, 0] puts 2^0 + 2^0 at 256 units, which no plan holds.
  EXPECT_GT(lowered, cases * 3 / 4);
}

// FLightNN weights: per-filter k_i in {0, 1, 2}, pruned filters included.
TEST(ShiftPlanPropertyTest, CompileConvEqualsReferenceLoweringForFLightNN) {
  support::Rng rng(2027);
  for (const quant::Pow2Config& pow2 :
       {window(-6, 0), window(-7, 0), window(-3, 0)}) {
    core::FLightNNConfig fl;
    fl.pow2 = pow2;
    core::FLightNNTransform transform(fl);
    transform.set_thresholds({0.6F, 0.25F});
    // Filter f's weights scale with f, so the residual norms straddle both
    // thresholds.
    Tensor w = Tensor::randn(Shape{12, 5, 3, 3}, rng, 0.0F, 0.3F);
    for (std::int64_t f = 0; f < 12; ++f) {
      for (std::int64_t i = 0; i < 45; ++i) {
        w[f * 45 + i] *= static_cast<float>(f + 1) / 12.0F;
      }
    }
    int histogram[3] = {0, 0, 0};
    for (const int k : transform.filter_k(w)) ++histogram[k];
    EXPECT_GT(histogram[0], 0) << "no pruned filter";
    EXPECT_GT(histogram[1], 0) << "no k_i = 1 filter";
    EXPECT_GT(histogram[2], 0) << "no k_i = 2 filter";
    const Tensor wq = transform.forward(w);
    EXPECT_TRUE(expect_reference_lowering(
        wq, 2, pow2, "flightnn window=[" + std::to_string(pow2.e_min) + ", 0]"));
  }
}

// Every shift layer of the eight Table-1 networks at width 0.5, under
// LightNN-1, LightNN-2 and FLightNN with pruned filters: compile_conv's pack
// and adoption's derived counts against the decomposition, and the census
// of the adopted engine against the per-tap entries the decomposition gives,
// counted output position by output position.
TEST(ShiftPlanPropertyTest, TableOneNetworksMatchTheDecomposition) {
  int layers = 0;
  int pruned = 0;
  for (int id = 1; id <= 8; ++id) {
    for (const int quantizer : {1, 2, 0}) {  // 0: FLightNN
      models::BuildOptions build;
      build.width_scale = 0.5F;
      build.seed = static_cast<std::uint64_t>(id);
      auto model = models::build_network(models::table1_network(id), build);
      int k_max = quantizer;
      quant::Pow2Config pow2;
      if (quantizer == 0) {
        const core::FLightNNConfig fl;
        k_max = fl.k_max;
        pow2 = fl.pow2;
        core::install_flightnn(*model, fl);
      } else {
        core::install_lightnn(*model, quantizer);
      }
      for (const core::QuantizableLayer& layer :
           core::quantizable_layers(*model)) {
        const Tensor& w = layer.weight->value;
        if (quantizer == 0) {
          // Prune about a quarter of the filters and give a third of the
          // rest k_i = 1: level thresholds at quantiles of the filter norms.
          auto* transform =
              dynamic_cast<core::FLightNNTransform*>(layer.transform);
          ASSERT_NE(transform, nullptr);
          const std::int64_t filters = w.shape()[0];
          const std::int64_t row = w.numel() / filters;
          std::vector<float> norms;
          for (std::int64_t f = 0; f < filters; ++f) {
            double sq = 0.0;
            for (std::int64_t i = 0; i < row; ++i) {
              sq += static_cast<double>(w[f * row + i]) * w[f * row + i];
            }
            norms.push_back(static_cast<float>(std::sqrt(sq)));
          }
          std::sort(norms.begin(), norms.end());
          transform->set_thresholds(
              {norms[norms.size() / 4], 0.3F * norms[norms.size() / 2]});
        }
        const Tensor wq = layer.transform->forward(w);
        const std::string what = "network " + std::to_string(id) +
                                 " quantizer " + std::to_string(quantizer) +
                                 " layer " + std::to_string(layers);
        ++layers;
        std::vector<std::int64_t> taps;
        ASSERT_TRUE(expect_reference_lowering(wq, k_max, pow2, what, &taps));
        inference::CompiledPlan compiled =
            inference::ShiftPlan::compile_conv(wq, k_max, pow2);
        pruned += static_cast<int>(wq.shape()[0]) -
                  static_cast<int>(compiled.plan.live.size());

        const auto* conv = dynamic_cast<const nn::Conv2d*>(layer.layer);
        const std::int64_t kernel = kernel_of(wq);
        const std::int64_t stride = conv != nullptr ? conv->stride() : 1;
        const std::int64_t padding = conv != nullptr ? conv->padding() : 0;
        const std::int64_t side = conv != nullptr ? kernel + 2 * stride : 1;
        const inference::ShiftConvSpec spec{wq.shape()[0], wq.shape()[1],
                                            kernel,        stride,
                                            padding,       compiled.term_count};
        const inference::ShiftConv2d engine(std::move(compiled.plan), spec,
                                            pow2);
        std::int64_t census = 0;
        for (std::int64_t t = 0; t < static_cast<std::int64_t>(taps.size());
             ++t) {
          const std::int64_t ky = t / kernel, kx = t % kernel;
          const std::int64_t out = (side + 2 * padding - kernel) / stride + 1;
          for (std::int64_t oy = 0; oy < out; ++oy) {
            for (std::int64_t ox = 0; ox < out; ++ox) {
              const std::int64_t iy = oy * stride + ky - padding;
              const std::int64_t ix = ox * stride + kx - padding;
              if (iy >= 0 && iy < side && ix >= 0 && ix < side) {
                census += taps[static_cast<std::size_t>(t)];
              }
            }
          }
        }
        EXPECT_EQ(engine.census(side, side).shifts, census) << what;
      }
    }
  }
  EXPECT_GT(layers, 100);
  EXPECT_GT(pruned, 0);
}

// What no plan can hold is refused with CheckFailure, by compile_conv or by
// adoption: a NaN or infinite weight, a fraction of 2^e_min, 11 units at
// k_max 2 (8 + 4 - 1 takes three terms), 192 units at k_max 3 (64 + 64 +
// 64, past int8) and +128 beside -128 in one filter. The reference refuses
// each as well. compile_conv's refusal names the filter and, but for +128
// beside -128, the element, wherever the filter scan meets it: at the
// first, a middle and the last element of every filter of layers whose
// rows are no whole number of 8- or 16-float vectors. -0.0 is byte 0.
TEST(ShiftPlanPropertyTest, CompileConvRefusesWeightsNoPlanHolds) {
  const quant::Pow2Config config;
  const float unit = std::ldexp(1.0F, config.e_min);
  const auto layer = [&](float w) {
    Tensor t = Tensor::zeros(Shape{2, 4, 1, 1});
    t[1] = w;
    t[4] = 8.0F * unit;
    return t;
  };
  const auto refused = [&](const Tensor& wq, int k_max) {
    try {
      (void)adopt(inference::ShiftPlan::compile_conv(wq, k_max, config), wq,
                  config);
    } catch (const support::CheckFailure&) {
      return true;
    }
    return false;
  };
  const auto reference_refused = [&](const Tensor& wq, int k_max) {
    try {
      (void)adopt(inference::oracle::reference_compile_conv(wq, k_max, config),
                  wq, config);
    } catch (const support::CheckFailure&) {
      return true;
    }
    return false;
  };
  EXPECT_FALSE(refused(layer(-128.0F * unit), 2)) << "a weight int8 holds";
  EXPECT_FALSE(refused(layer(128.0F * unit), 2)) << "a negated filter";
  const struct {
    float weight;
    int k_max;
    const char* what;
  } cases[] = {
      {std::numeric_limits<float>::quiet_NaN(), 2, "NaN"},
      {std::numeric_limits<float>::infinity(), 2, "+inf"},
      {0.3F * unit, 2, "0.3 units"},
      {11.0F * unit, 2, "11 units at k_max 2"},
      {192.0F * unit, 3, "192 units at k_max 3"},
  };
  for (const auto& c : cases) {
    EXPECT_TRUE(refused(layer(c.weight), c.k_max)) << c.what;
    EXPECT_TRUE(reference_refused(layer(c.weight), c.k_max)) << c.what;
  }
  Tensor both = layer(128.0F * unit);
  both[2] = -128.0F * unit;
  EXPECT_TRUE(refused(both, 2)) << "+128 beside -128";
  EXPECT_TRUE(reference_refused(both, 2)) << "+128 beside -128";
  EXPECT_THROW((void)inference::ShiftPlan::compile_conv(layer(unit), 2,
                                                        window(-62, 0)),
               support::CheckFailure)
      << "a window adoption refuses";
  EXPECT_THROW((void)inference::ShiftPlan::compile_conv(layer(unit), 0, config),
               support::CheckFailure)
      << "k_max 0";

  // The text of compile_conv's own refusal, or "" when it lowers.
  const auto refusal = [&](const Tensor& wq, int k_max) -> std::string {
    try {
      (void)inference::ShiftPlan::compile_conv(wq, k_max, config);
    } catch (const support::CheckFailure& failure) {
      return failure.what();
    }
    return "";
  };
  const float plus_128 = 128.0F * unit;
  const struct {
    float weight;
    int k_max;
    const char* what;
  } placed[] = {
      {std::numeric_limits<float>::quiet_NaN(), 2, "NaN"},
      {std::numeric_limits<float>::infinity(), 2, "+inf"},
      {-std::numeric_limits<float>::infinity(), 2, "-inf"},
      {3.0F * std::numeric_limits<float>::denorm_min(), 2, "a subnormal"},
      {0.3F * unit, 2, "0.3 units"},
      {129.0F * unit, 2, "129 units"},
      {11.0F * unit, 2, "11 units at k_max 2"},
      {plus_128, 2, "+128 beside -128"},
  };
  // Rows of 45 and 7 weights.
  for (const Shape& shape : {Shape{3, 5, 3, 3}, Shape{2, 7}}) {
    const std::int64_t filters = shape[0];
    const std::int64_t row = shape.numel() / filters;
    // Every filter live, on LightNN-2 values: 3, -5 and 12 units.
    Tensor base(shape);
    for (std::int64_t i = 0; i < base.numel(); ++i) {
      base[i] = static_cast<float>(i % 3 == 0 ? 3 : i % 3 == 1 ? -5 : 12) *
                unit;
    }
    ASSERT_EQ(refusal(base, 2), "") << shape.to_string();
    for (std::int64_t f = 0; f < filters; ++f) {
      for (const std::int64_t e : {std::int64_t{0}, row / 2, row - 1}) {
        for (const auto& c : placed) {
          Tensor wq = base;
          wq[f * row + e] = c.weight;
          if (c.weight == plus_128) wq[f * row + (e == 0 ? 1 : 0)] = -plus_128;
          const std::string filter = "filter " + std::to_string(f);
          const std::string named =
              c.weight == plus_128
                  ? filter + " holds weights of -128 and +128"
                  : filter + " element " + std::to_string(e) + " (";
          const std::string text = refusal(wq, c.k_max);
          EXPECT_NE(text.find("ShiftPlan::compile_conv: " + named),
                    std::string::npos)
              << shape.to_string() << " " << c.what << " at " << filter
              << " element " << e << ": refused with \"" << text << "\"";
          EXPECT_TRUE(reference_refused(wq, c.k_max))
              << shape.to_string() << " " << c.what;
        }
      }
    }
  }

  // -0.0 lowers as +0.0 does: byte 0 in a live filter, and a filter of
  // nothing else is pruned.
  Tensor negative_zero = layer(-0.0F);
  negative_zero[5] = -0.0F;
  const inference::CompiledPlan got =
      inference::ShiftPlan::compile_conv(negative_zero, 2, config);
  const inference::CompiledPlan want =
      inference::ShiftPlan::compile_conv(layer(0.0F), 2, config);
  EXPECT_EQ(got.plan.live, std::vector<std::int32_t>{1});
  EXPECT_EQ(got.plan.words, want.plan.words);
  EXPECT_EQ(got.plan.words, std::vector<std::int32_t>{8});
  EXPECT_EQ(got.plan.negated, want.plan.negated);
  EXPECT_EQ(got.plan.entries(), want.plan.entries());
  EXPECT_EQ(got.term_count, want.term_count);
}

// 2 filters over [5, 3, 3] (two channel groups, the second holding one live
// channel), filter 1 pruned. In units of 2^e_min: 63 = 2^6 - 2^0 at channel
// 4's tap (1, 2), -128 = -2^6 - 2^6 at channel 1's tap (0, 0) and 8 = 2^3 at
// channel 3's tap (2, 1); `plus` flips the -128 to +128.
Tensor pack_test_weights(bool plus = false) {
  const float unit = std::ldexp(1.0F, quant::Pow2Config{}.e_min);
  Tensor wq = Tensor::zeros(Shape{2, 5, 3, 3});
  wq[4 * 9 + 1 * 3 + 2] = 63.0F * unit;
  wq[1 * 9 + 0] = (plus ? 128.0F : -128.0F) * unit;
  wq[3 * 9 + 2 * 3 + 1] = 8.0F * unit;
  return wq;
}

// Byte `channel` of the pack word at tap (ky, kx) of a [5, 3, 3] filter.
int byte_at(const std::vector<std::int32_t>& words, std::int64_t channel,
            std::int64_t ky, std::int64_t kx) {
  const auto word = static_cast<std::uint32_t>(
      words[static_cast<std::size_t>((channel / 4) * 9 + ky * 3 + kx)]);
  return static_cast<std::int8_t>(word >> (8 * (channel % 4)));
}

// compile_conv packs each weight as its byte, four channels per word in
// [filter][group][ky][kx] order, skips the pruned filter and counts the
// peel's terms; adoption derives 128 * (sum of the bytes) per live filter,
// the entries per tap and the term count.
TEST(ShiftPlanPropertyTest, PackHoldsEachWeightAsItsByte) {
  const quant::Pow2Config config;
  const inference::CompiledPlan compiled =
      inference::ShiftPlan::compile_conv(pack_test_weights(), 2, config);
  const inference::ShiftPlan& plan = compiled.plan;
  EXPECT_EQ(plan.live, std::vector<std::int32_t>{0});
  EXPECT_EQ(plan.negated, std::vector<std::uint8_t>{0});
  EXPECT_EQ(plan.k_max, 2);
  EXPECT_EQ(plan.entries(), 5);
  EXPECT_EQ(compiled.term_count, 2);
  ASSERT_EQ(plan.words.size(), 18U);
  EXPECT_EQ(byte_at(plan.words, 4, 1, 2), 63);
  EXPECT_EQ(byte_at(plan.words, 1, 0, 0), -128);
  EXPECT_EQ(byte_at(plan.words, 3, 2, 1), 8);
  int nonzero = 0;
  for (const std::int32_t word : plan.words) {
    for (int i = 0; i < 4; ++i) {
      nonzero += (static_cast<std::uint32_t>(word) >> (8 * i)) & 0xFFU ? 1 : 0;
    }
  }
  EXPECT_EQ(nonzero, 3);
  const inference::AdoptedPlan adopted =
      inference::adopt_plan(plan, 2, 5, 3, config);
  EXPECT_EQ(adopted.taps, 18);
  EXPECT_EQ(adopted.correction,
            std::vector<std::int32_t>{128 * (63 - 128 + 8)});
  EXPECT_EQ(adopted.tap_entries,
            (std::vector<std::int64_t>{2, 0, 0, 0, 0, 2, 0, 1, 0}));
  EXPECT_EQ(adopted.term_count, 2);

  // A filter reaching +128 (and not -128) packs negated.
  const inference::ShiftPlan negated =
      inference::ShiftPlan::compile_conv(pack_test_weights(true), 2, config)
          .plan;
  EXPECT_EQ(negated.negated, std::vector<std::uint8_t>{1});
  EXPECT_EQ(byte_at(negated.words, 4, 1, 2), -63);
  EXPECT_EQ(byte_at(negated.words, 1, 0, 0), -128);
  EXPECT_EQ(byte_at(negated.words, 3, 2, 1), -8);
  EXPECT_EQ(inference::adopt_plan(negated, 2, 5, 3, config).correction,
            std::vector<std::int32_t>{-128 * (63 + 128 + 8)});
}

// Adoption re-lays the words in place into the kernels' blocked order:
// live filter j's word at tap t moves to (j / 16) * 16 * taps + t * 16 +
// j % 16, and the lanes past the last live filter of the last block are
// zero. Live counts below, at and past one and two blocks, with pruned
// filters between them.
TEST(ShiftPlanPropertyTest, AdoptionLaysTheWordsOutInBlocksOfSixteen) {
  const quant::Pow2Config config;
  support::Rng rng(31);
  for (const std::int64_t filters : {1, 15, 16, 17, 40}) {
    Tensor wq = quant::quantize_lightnn(
        Tensor::randn(Shape{filters, 6, 3, 3}, rng, 0.0F, 0.3F), 2, config);
    for (std::int64_t f = 2; f < filters; f += 7) {
      std::fill(wq.data() + f * 54, wq.data() + (f + 1) * 54, 0.0F);
    }
    const inference::ShiftPlan plan =
        inference::ShiftPlan::compile_conv(wq, 2, config).plan;
    const inference::AdoptedPlan adopted =
        inference::adopt_plan(plan, filters, 6, 3, config);
    const auto live = static_cast<std::int64_t>(plan.live.size());
    const std::int64_t taps = adopted.taps;
    const std::int64_t blocks = (live + 15) / 16;
    ASSERT_EQ(adopted.plan.words.size(),
              static_cast<std::size_t>(blocks * 16 * taps))
        << filters;
    EXPECT_EQ(adopted.plan.live, plan.live);
    std::vector<bool> placed(adopted.plan.words.size(), false);
    for (std::int64_t j = 0; j < live; ++j) {
      for (std::int64_t t = 0; t < taps; ++t) {
        const auto at =
            static_cast<std::size_t>((j / 16) * 16 * taps + t * 16 + j % 16);
        EXPECT_EQ(adopted.plan.words[at],
                  plan.words[static_cast<std::size_t>(j * taps + t)])
            << filters << " filter " << j << " tap " << t;
        placed[at] = true;
      }
    }
    for (std::size_t at = 0; at < placed.size(); ++at) {
      if (!placed[at]) {
        EXPECT_EQ(adopted.plan.words[at], 0) << filters << " " << at;
      }
    }
  }
}

// The adopting constructor checks every plan before anything indexes it,
// whoever built it. Each hostile plan below must throw CheckFailure there
// (the sanitizer legs run this case), allocating nothing the plan's own
// words do not pay for.
TEST(ShiftPlanPropertyTest, AdoptionRejectsHostilePlans) {
  const quant::Pow2Config config;
  const inference::ShiftPlan good =
      inference::ShiftPlan::compile_conv(pack_test_weights(), 2, config).plan;
  struct Geometry {
    std::int64_t out_channels = 2, in_channels = 5, kernel = 3;
    std::int64_t term_count = 2;
  };
  const auto rejects = [&](const inference::ShiftPlan& plan,
                           const Geometry& g = {},
                           const quant::Pow2Config& window_config = {}) {
    const inference::ShiftConvSpec spec{g.out_channels, g.in_channels,
                                        g.kernel,       1,
                                        1,              g.term_count};
    try {
      (void)inference::ShiftConv2d(plan, spec, window_config);
    } catch (const support::CheckFailure&) {
      return true;
    }
    return false;
  };
  ASSERT_FALSE(rejects(good));
  const auto with = [&](auto mutate) {
    inference::ShiftPlan plan = good;
    mutate(plan);
    return plan;
  };
  // Two live filters holding the good filter's words twice.
  const auto twice = [&](std::int32_t first, std::int32_t second) {
    return with([&](inference::ShiftPlan& p) {
      p.live = {first, second};
      p.words.insert(p.words.end(), good.words.begin(), good.words.end());
      p.negated = {0, 0};
      p.entry_count = 10;
    });
  };
  EXPECT_FALSE(rejects(twice(0, 1), {2, 5, 3, 4})) << "two live filters";
  EXPECT_TRUE(rejects(twice(1, 0), {2, 5, 3, 4})) << "live list unsorted";
  EXPECT_TRUE(rejects(twice(0, 0), {2, 5, 3, 4})) << "live filter repeated";
  EXPECT_TRUE(rejects(with([](auto& p) { p.live = {2}; })))
      << "live filter at out_channels";
  EXPECT_TRUE(rejects(with([](auto& p) { p.live = {-1}; })))
      << "negative live filter";
  EXPECT_TRUE(rejects(with([](auto& p) { p.negated = {2}; })))
      << "negated byte 2";
  EXPECT_TRUE(rejects(with([](auto& p) { p.negated = {}; })))
      << "no negated byte";
  EXPECT_TRUE(rejects(with([](auto& p) { p.words.pop_back(); })))
      << "words one short";
  EXPECT_TRUE(rejects(with([](auto& p) { p.words.push_back(0); })))
      << "words one long";
  // Channel 5's lane of the second group: past in_channels 5.
  EXPECT_TRUE(rejects(with([](auto& p) { p.words[9] |= 0x0100; })))
      << "nonzero padding lane";
  EXPECT_TRUE(rejects(with([](auto& p) {
    std::fill(p.words.begin(), p.words.end(), 0);
    p.entry_count = 0;
  }), {2, 5, 3, 0})) << "live filter of zeros";
  // 11 = 8 + 4 - 1 takes three terms; the stored count follows it.
  EXPECT_TRUE(rejects(with([](auto& p) {
    p.words[0] |= 11 << 16;
    p.entry_count += 3;
  }))) << "a weight past k_max";
  EXPECT_TRUE(rejects(with([](auto& p) { p.k_max = 0; }))) << "k_max 0";
  for (const std::int64_t off : {-1, 1}) {
    EXPECT_TRUE(rejects(with([&](auto& p) { p.entry_count += off; })))
        << "entry count off by " << off;
    EXPECT_TRUE(rejects(good, {2, 5, 3, 2 + off}))
        << "term count off by " << off;
  }
  EXPECT_TRUE(rejects(good, {2, 4, 3, 2})) << "in_channels 4: 9 taps";
  EXPECT_TRUE(rejects(good, {2, 5, 2, 2})) << "kernel 2: 8 taps";
  EXPECT_TRUE(rejects(good, {2, 0, 3, 2})) << "no input channels";
  EXPECT_TRUE(rejects(good, {0, 5, 3, 2})) << "no filters";
  // A word count past int64 (2^22 groups x 2^48 taps) refuses before
  // anything is sized from it; an all-pruned plan of a 2^15 x 2^15 kernel
  // loads without its 2^30-entry tap table.
  const std::int64_t huge = std::int64_t{1} << 24;
  inference::ShiftPlan pruned;
  pruned.k_max = 2;
  EXPECT_TRUE(rejects(pruned, {2, huge, huge, 0})) << "word count past int64";
  EXPECT_TRUE(rejects(good, {2, huge, huge, 2})) << "word count past int64";
  EXPECT_FALSE(rejects(pruned, {2, 1, std::int64_t{1} << 15, 0}))
      << "an all-pruned plan";
  EXPECT_TRUE(rejects(with([](auto& p) {
    p.live = {};
    p.words = {};
    p.negated = {};
  }), {2, 5, 3, 0})) << "an all-pruned plan claiming 5 entries";
  // The exponent window is checked in int64, and its ends bound the scale
  // exponent run() forms from it.
  EXPECT_TRUE(rejects(good, {}, window(-62, 0))) << "a window of 62 shifts";
  EXPECT_TRUE(rejects(good, {}, window(194, 200))) << "e_max past 127";
  EXPECT_TRUE(rejects(good, {},
                      window(std::numeric_limits<int>::min(),
                             std::numeric_limits<int>::max())))
      << "a window whose width overflows int";
}

// 128 x sum |w| against INT32_MAX, at the bound's exact edge: 131,071
// weights of -128 (one term each at window [-7, 0]) fit, one more does not.
TEST(ShiftPlanPropertyTest, AdoptionRefusesAFilterPastTheInt32Bound) {
  const quant::Pow2Config seven = window(-7, 0);
  const auto row_of = [&](std::int64_t channels) {
    Tensor wq(Shape{1, channels});
    wq.fill(-1.0F);
    return inference::ShiftPlan::compile_conv(wq, 1, seven);
  };
  const auto message = [&](std::int64_t channels) {
    inference::CompiledPlan compiled = row_of(channels);
    try {
      (void)inference::adopt_plan(std::move(compiled.plan), 1, channels, 1,
                                  seven);
    } catch (const support::CheckFailure& failure) {
      return std::string(failure.what());
    }
    return std::string();
  };
  EXPECT_EQ(message(131071), "") << "128 * 128 * 131071 fits int32";
  EXPECT_NE(message(131072).find("filter 0's sum of |w| is 16777216"),
            std::string::npos)
      << "128 * 128 * 131072 passes INT32_MAX";
}

// Bias handling must match the oracle's (bias folds in after
// dequantization, independent of the pack).
TEST(ShiftPlanPropertyTest, BiasFoldsIdenticallyOnBothPaths) {
  const quant::Pow2Config config;
  support::Rng rng(5);
  // Standard deviation 0.5 keeps every filter inside the int8 pack.
  Tensor w = Tensor::randn(Shape{4, 2, 3, 3}, rng, 0.0F, 0.5F);
  Tensor wq = quant::quantize_lightnn(w, 2, config);
  Tensor bias = Tensor::randn(Shape{4}, rng);
  const inference::ShiftConv2d engine(wq, 2, config, 2, 1, bias);
  const Tensor image = Tensor::randn(Shape{2, 9, 9}, rng);
  const auto q = inference::quantize_image(image, 8);
  expect_bitwise_equal(
      inference::oracle::TermWalkConv2d(wq, 2, config, 2, 1, bias).run(q),
      engine.run(q), "conv+bias");

  Tensor wl = Tensor::randn(Shape{5, 12}, rng, 0.0F, 0.5F);
  Tensor wlq = quant::quantize_lightnn(wl, 2, config);
  Tensor bl = Tensor::randn(Shape{5}, rng);
  const inference::ShiftConv2d lin =
      inference::oracle::linear_engine(wlq, 2, config, bl);
  const Tensor x = Tensor::randn(Shape{12}, rng);
  const auto qx = inference::quantize_image(x.reshaped(Shape{12, 1, 1}), 8);
  expect_bitwise_equal(
      inference::oracle::TermWalkLinear(wlq, 2, config, bl).run(qx),
      inference::oracle::run_linear(lin, qx), "linear+bias");
}

}  // namespace
}  // namespace flightnn
