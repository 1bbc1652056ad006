// Property tests for the compiled shift-plan engine: over randomized layer
// geometries, k_max values and pruning fractions (including all-pruned and
// fully-dense extremes), the compiled plan path must produce BIT-IDENTICAL
// outputs to the pre-plan term walk (the oracle in term_walk_oracle.hpp),
// the engine's analytic census must equal the op counts the term walk
// tallies accumulate by accumulate, and the plan itself must satisfy its
// structural invariants (sorted filter prefix, no zero-sign entries, shifts
// inside the barrel range, pruned filters with empty entry ranges). Weights
// the int8 pack cannot hold must be refused at adoption with CheckFailure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/decompose.hpp"
#include "core/flightnn_transform.hpp"
#include "inference/shift_engine.hpp"
#include "inference/shift_plan.hpp"
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
// [-127, 128]. Adoption refuses any other filter.
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

// `plan` is one compile_conv returned, which the engine adopted.
void check_plan_invariants(const inference::ShiftPlan& plan,
                           const quant::Pow2Config& config,
                           std::int64_t in_channels, std::int64_t kernel) {
  ASSERT_EQ(plan.filter_begin.size(),
            static_cast<std::size_t>(plan.filters) + 1);
  EXPECT_EQ(plan.filter_begin.front(), 0);
  EXPECT_EQ(plan.filter_begin.back(), plan.entries());
  for (std::size_t f = 1; f < plan.filter_begin.size(); ++f) {
    EXPECT_LE(plan.filter_begin[f - 1], plan.filter_begin[f]);
  }
  const auto n = static_cast<std::size_t>(plan.entries());
  ASSERT_EQ(plan.channel.size(), n);
  ASSERT_EQ(plan.ky.size(), n);
  ASSERT_EQ(plan.kx.size(), n);
  ASSERT_EQ(plan.shift.size(), n);
  ASSERT_EQ(plan.sign.size(), n);
  const int shift_levels = config.exponent_levels();
  for (std::size_t e = 0; e < n; ++e) {
    EXPECT_TRUE(plan.sign[e] == 1 || plan.sign[e] == -1)
        << "zero-sign entry survived compilation at " << e;
    EXPECT_GE(plan.shift[e], 0);
    EXPECT_LT(plan.shift[e], shift_levels);
    EXPECT_GE(plan.channel[e], 0);
    EXPECT_LT(plan.channel[e], in_channels);
    EXPECT_GE(plan.ky[e], 0);
    EXPECT_LT(plan.ky[e], kernel);
    EXPECT_GE(plan.kx[e], 0);
    EXPECT_LT(plan.kx[e], kernel);
  }
}

// Count nonzero elements of a quantized weight tensor, term by term: the
// plan must contain exactly one entry per nonzero single-shift term element.
std::int64_t expected_entries(const Tensor& wq, int k_max,
                              const quant::Pow2Config& config) {
  const auto decomposition = core::decompose_to_lightnn1(wq, k_max, config);
  std::int64_t entries = 0;
  for (const auto& term : decomposition.terms) {
    for (const auto& element : term.elements) {
      if (element.sign != 0) ++entries;
    }
  }
  return entries;
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
          if (!fits_int8_pack(wq, config)) {
            ++refused;
            EXPECT_THROW((void)inference::ShiftConv2d(wq, k_max, config,
                                                      stride, padding),
                         support::CheckFailure)
                << "k=" << k_max << ": adoption must refuse weights int8 "
                << "holds neither as they are nor negated";
            continue;
          }

          const inference::ShiftConv2d engine(wq, k_max, config, stride,
                                              padding);
          const inference::CompiledPlan compiled =
              inference::ShiftPlan::compile_conv(wq, k_max, config);
          check_plan_invariants(compiled.plan, config, in_ch, kernel);
          EXPECT_EQ(compiled.plan.entries(),
                    expected_entries(wq, k_max, config))
              << "plan did not elide exactly the zero elements";

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
              << "k=" << k_max << " kernel=" << kernel << " stride=" << stride
              << " pad=" << padding << " prune=" << fraction;
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
  // hold both +-2 (+-128 units), which adoption refuses.
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
            << "k=" << k_max << ": adoption must refuse weights int8 holds "
            << "neither as they are nor negated";
        continue;
      }

      const inference::ShiftConv2d engine =
          inference::oracle::linear_engine(wq, k_max, config);
      const inference::CompiledPlan compiled =
          inference::ShiftPlan::compile_conv(wq, k_max, config);
      check_plan_invariants(compiled.plan, config, in_features, 1);
      EXPECT_EQ(compiled.plan.entries(), expected_entries(wq, k_max, config));

      const auto q = inference::quantize_tensor(x, 8);

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

// Hand-built single-entry plan: one +1.0 weight at element 0 must compile to
// exactly one entry with shift = -e_min (2^0 needs exponent 0) and sign +1.
// Its int8 pack would spend 9 words (one 3x3 channel group) on that one
// entry, past the 4 per entry adoption allows, so the engine refuses it.
TEST(ShiftPlanPropertyTest, SingleWeightCompilesToOneEntry) {
  const quant::Pow2Config config;
  Tensor wq = Tensor::zeros(Shape{2, 1, 3, 3});
  wq.data()[0] = 1.0F;  // filter 0, element (0, 0, 0); filter 1 pruned
  const inference::ShiftPlan plan =
      inference::ShiftPlan::compile_conv(wq, 1, config).plan;
  EXPECT_THROW((void)inference::ShiftConv2d(wq, 1, config, 1, 1),
               support::CheckFailure);
  ASSERT_EQ(plan.entries(), 1);
  EXPECT_EQ(plan.channel[0], 0);
  EXPECT_EQ(plan.ky[0], 0);
  EXPECT_EQ(plan.kx[0], 0);
  EXPECT_EQ(plan.shift[0], -config.e_min);
  EXPECT_EQ(plan.sign[0], 1);
  EXPECT_EQ(plan.filter_begin[1], 1);
  EXPECT_EQ(plan.filter_begin[2], 1) << "pruned filter must have empty range";
}

template <typename T>
std::vector<T> stream(const inference::PlanArray<T>& array) {
  return {array.begin(), array.end()};
}

quant::Pow2Config window(int e_min, int e_max) {
  quant::Pow2Config config;
  config.e_min = e_min;
  config.e_max = e_max;
  return config;
}

// Adopts a compiled plan of `wq` (stride 1, padding 0); throws CheckFailure
// where adoption refuses it.
void adopt(inference::CompiledPlan compiled, const Tensor& wq,
           const quant::Pow2Config& config) {
  const Shape& s = wq.shape();
  const inference::ShiftConvSpec spec{s[0], s[1], s.rank() == 4 ? s[2] : 1,
                                      1,    0,    compiled.term_count};
  (void)inference::ShiftConv2d(std::move(compiled.plan), spec, config);
}

// compile_conv against the lowering it replaced (decompose_to_lightnn1, then
// the term-by-term loop): the same streams, filter_begin and term count. A
// weight past 128 units has no int8 byte, so compile_conv refuses it where
// the reference lowers it and adoption refuses the reference's plan. Returns
// whether the two lowered.
bool expect_reference_lowering(const Tensor& wq, int k_max,
                               const quant::Pow2Config& config,
                               const std::string& what) {
  inference::CompiledPlan want =
      inference::oracle::reference_compile_conv(wq, k_max, config);
  std::optional<inference::CompiledPlan> got;
  try {
    got = inference::ShiftPlan::compile_conv(wq, k_max, config);
  } catch (const support::CheckFailure&) {
    EXPECT_THROW(adopt(std::move(want), wq, config), support::CheckFailure)
        << what << ": compile_conv refused weights whose reference plan loads";
    return false;
  }
  EXPECT_EQ(got->term_count, want.term_count) << what;
  EXPECT_EQ(got->plan.filters, want.plan.filters) << what;
  EXPECT_EQ(stream(got->plan.filter_begin), stream(want.plan.filter_begin))
      << what;
  EXPECT_EQ(stream(got->plan.channel), stream(want.plan.channel)) << what;
  EXPECT_EQ(stream(got->plan.ky), stream(want.plan.ky)) << what;
  EXPECT_EQ(stream(got->plan.kx), stream(want.plan.kx)) << what;
  EXPECT_EQ(stream(got->plan.shift), stream(want.plan.shift)) << what;
  EXPECT_EQ(stream(got->plan.sign), stream(want.plan.sign)) << what;
  return true;
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

// What no plan can hold is refused with CheckFailure, by compile_conv or by
// adoption: a NaN or infinite weight, a fraction of 2^e_min, 11 units at
// k_max 2 (8 + 4 - 1 takes three terms) and 192 units at k_max 3 (64 + 64 +
// 64, past int8). The reference refuses each as well.
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
      adopt(inference::ShiftPlan::compile_conv(wq, k_max, config), wq, config);
    } catch (const support::CheckFailure&) {
      return true;
    }
    return false;
  };
  const auto reference_refused = [&](const Tensor& wq, int k_max) {
    try {
      adopt(inference::oracle::reference_compile_conv(wq, k_max, config), wq,
            config);
    } catch (const support::CheckFailure&) {
      return true;
    }
    return false;
  };
  EXPECT_FALSE(refused(layer(-128.0F * unit), 2)) << "a weight int8 holds";
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
  EXPECT_THROW((void)inference::ShiftPlan::compile_conv(layer(unit), 2,
                                                        window(-62, 0)),
               support::CheckFailure)
      << "a window check_plan refuses";
  EXPECT_THROW((void)inference::ShiftPlan::compile_conv(layer(unit), 0, config),
               support::CheckFailure)
      << "k_max 0";
}

// A well-formed hand-built plan: 2 filters over [5, 3, 3] (two channel
// groups, the second holding one live channel), filter 1 pruned.
inference::ShiftPlan dense_test_plan() {
  inference::ShiftPlan plan;
  plan.filters = 2;
  // (channel, ky, kx, shift, sign): 2^6 - 2^0 = 63 at channel 4's tap
  // (1, 2); -2^6 - 2^6 = -128 at channel 1's tap (0, 0); 2^3 = 8 at
  // channel 3's tap (2, 1).
  const int entries[][5] = {
      {4, 1, 2, 6, 1}, {1, 0, 0, 6, -1}, {4, 1, 2, 0, -1},
      {1, 0, 0, 6, -1}, {3, 2, 1, 3, 1}};
  for (const auto& e : entries) {
    plan.channel.push_back(e[0]);
    plan.ky.push_back(static_cast<std::int16_t>(e[1]));
    plan.kx.push_back(static_cast<std::int16_t>(e[2]));
    plan.shift.push_back(static_cast<std::int8_t>(e[3]));
    plan.sign.push_back(static_cast<std::int8_t>(e[4]));
  }
  for (const std::int64_t begin : {0, 5, 5}) plan.filter_begin.push_back(begin);
  return plan;
}

// The dense form rebuilds each weight as the sum of its entries, four
// channels per word in [filter][group][ky][kx] order, skips the pruned
// filter and keeps 128 * (sum of the weights) per live filter.
TEST(ShiftPlanPropertyTest, DensePackRebuildsWeights) {
  const inference::DensePack pack =
      inference::pack_dense(dense_test_plan(), 5, 3, {});
  EXPECT_EQ(pack.taps, 2 * 9);
  ASSERT_EQ(pack.filters, std::vector<std::int32_t>{0});
  ASSERT_EQ(pack.words.size(), 18U);
  const auto byte_at = [&](std::int64_t channel, std::int64_t ky,
                           std::int64_t kx) {
    const auto word = static_cast<std::uint32_t>(
        pack.words[static_cast<std::size_t>((channel / 4) * 9 + ky * 3 + kx)]);
    return static_cast<std::int8_t>(word >> (8 * (channel % 4)));
  };
  EXPECT_EQ(byte_at(4, 1, 2), 63);
  EXPECT_EQ(byte_at(1, 0, 0), -128);
  EXPECT_EQ(byte_at(3, 2, 1), 8);
  int nonzero = 0;
  for (const std::int32_t word : pack.words) {
    for (int i = 0; i < 4; ++i) {
      nonzero += (static_cast<std::uint32_t>(word) >> (8 * i)) & 0xFFU ? 1 : 0;
    }
  }
  EXPECT_EQ(nonzero, 3);
  ASSERT_EQ(pack.correction.size(), 1U);
  EXPECT_EQ(pack.correction[0], 128 * (63 - 128 + 8));
  EXPECT_EQ(pack.negated, std::vector<std::uint8_t>{0});

  // A filter reaching +128 (and not -128) packs negated.
  inference::ShiftPlan plus = dense_test_plan();
  plus.sign[1] = 1;
  plus.sign[3] = 1;
  const inference::DensePack negated =
      inference::pack_dense(plus, 5, 3, {});
  EXPECT_EQ(negated.negated, std::vector<std::uint8_t>{1});
  const auto negated_byte = [&](std::int64_t channel, std::int64_t ky,
                                std::int64_t kx) {
    const auto word = static_cast<std::uint32_t>(negated.words[static_cast<
        std::size_t>((channel / 4) * 9 + ky * 3 + kx)]);
    return static_cast<std::int8_t>(word >> (8 * (channel % 4)));
  };
  EXPECT_EQ(negated_byte(4, 1, 2), -63);
  EXPECT_EQ(negated_byte(1, 0, 0), -128);
  EXPECT_EQ(negated_byte(3, 2, 1), -8);
  EXPECT_EQ(negated.correction[0], -128 * (63 + 128 + 8));
}

// The adopting constructor checks every plan before anything indexes it,
// whoever built it: its streams (check_plan), then each entry as pack_dense
// takes it. Each hostile plan below must throw CheckFailure there (the
// sanitizer legs run this case): no entry is used before its check, and the
// census never sees the plan.
TEST(ShiftPlanPropertyTest, AdoptionRejectsHostilePlans) {
  // The default config's window is e_max - e_min = 6 shifts.
  const auto adopt = [](const inference::ShiftPlan& plan,
                        std::int64_t in_channels, std::int64_t kernel,
                        const quant::Pow2Config& config = {}) {
    const inference::ShiftConvSpec spec{plan.filters, in_channels, kernel, 1,
                                        1, 0};
    return inference::ShiftConv2d(plan, spec, config);
  };
  ASSERT_NO_THROW((void)adopt(dense_test_plan(), 5, 3));
  const auto rejects = [&](const inference::ShiftPlan& plan,
                           std::int64_t in_channels, std::int64_t kernel,
                           const quant::Pow2Config& config = {}) {
    try {
      (void)adopt(plan, in_channels, kernel, config);
    } catch (const support::CheckFailure&) {
      return true;
    }
    return false;
  };
  {
    const inference::ShiftPlan plan = dense_test_plan();
    EXPECT_TRUE(rejects(plan, 4, 3)) << "channel 4 >= in_channels 4";
    EXPECT_TRUE(rejects(plan, 5, 2)) << "kx 2 >= kernel 2";
    EXPECT_TRUE(rejects(plan, 0, 3)) << "no input channels";
  }
  for (const std::int8_t shift : {7, 61, -1}) {
    inference::ShiftPlan plan = dense_test_plan();
    plan.shift[4] = shift;
    EXPECT_TRUE(rejects(plan, 5, 3))
        << "shift " << int{shift} << " outside the window [0, 6]";
  }
  for (const std::int8_t sign : {0, 2, -100}) {
    inference::ShiftPlan plan = dense_test_plan();
    plan.sign[4] = sign;
    EXPECT_TRUE(rejects(plan, 5, 3)) << "sign " << int{sign};
  }
  for (const auto& spans : {std::vector<std::int64_t>{0, 9, 9},
                            std::vector<std::int64_t>{0, 3, 2},
                            std::vector<std::int64_t>{0, 6, 5},
                            std::vector<std::int64_t>{-1, 5, 5},
                            std::vector<std::int64_t>{0, 5}}) {
    inference::ShiftPlan plan = dense_test_plan();
    plan.filter_begin = {};
    for (const std::int64_t begin : spans) plan.filter_begin.push_back(begin);
    EXPECT_TRUE(rejects(plan, 5, 3)) << "a prefix that is no span of the stream";
  }
  {
    inference::ShiftPlan plan = dense_test_plan();
    plan.kx.push_back(0);
    EXPECT_TRUE(rejects(plan, 5, 3)) << "streams of unequal length";
  }
  // The exponent window is checked in int64, and its ends bound the scale
  // exponent run() forms from it.
  EXPECT_TRUE(rejects(dense_test_plan(), 5, 3, window(-62, 0)))
      << "a window of 62 shifts";
  EXPECT_TRUE(rejects(dense_test_plan(), 5, 3, window(194, 200)))
      << "e_max past 127";
  EXPECT_TRUE(rejects(dense_test_plan(), 5, 3,
                      window(std::numeric_limits<int>::min(),
                             std::numeric_limits<int>::max())))
      << "a window whose width overflows int";
}

// pack_dense's own refusals, on plans check_plan accepts: weights int8
// holds neither as they are nor negated, a filter whose int32 sums could
// wrap, and a pack that would outgrow the plan. Each throws CheckFailure
// naming what it breaks, without allocating past O(entries + filters); the
// adopting constructor, and so every load path, throws with it.
TEST(ShiftPlanPropertyTest, PackDenseRefusesWhatInt8CannotHold) {
  ASSERT_NO_THROW((void)inference::pack_dense(dense_test_plan(), 5, 3, {}));
  const auto refusal = [](const inference::ShiftPlan& plan,
                          std::int64_t in_channels, std::int64_t kernel,
                          const quant::Pow2Config& config = {}) {
    try {
      (void)inference::pack_dense(plan, in_channels, kernel, config);
    } catch (const support::CheckFailure& failure) {
      const inference::ShiftConvSpec spec{plan.filters, in_channels, kernel,
                                          1,            0,           0};
      EXPECT_THROW((void)inference::ShiftConv2d(plan, spec, config),
                   support::CheckFailure);
      return std::string(failure.what());
    }
    return std::string();
  };
  const auto names = [](const std::string& message, const char* part) {
    return message.find(part) != std::string::npos;
  };
  {
    // +128 at channel 1 beside -128 at channel 2: int8 holds the filter
    // neither as it is nor negated.
    inference::ShiftPlan plan = dense_test_plan();
    plan.sign[1] = 1;
    plan.sign[3] = 1;
    for (int e = 0; e < 2; ++e) {
      plan.channel.push_back(2);
      plan.ky.push_back(0);
      plan.kx.push_back(0);
      plan.shift.push_back(6);
      plan.sign.push_back(-1);
    }
    plan.filter_begin = {};
    for (const std::int64_t begin : {0, 7, 7}) plan.filter_begin.push_back(begin);
    EXPECT_TRUE(names(refusal(plan, 5, 3),
                      "filter 0 holds weights in [-128, 128]"))
        << "a +128 weight beside a -128 weight";
  }
  {
    inference::ShiftPlan plan = dense_test_plan();
    plan.sign[1] = 1;
    plan.sign[3] = 1;
    plan.channel[4] = 1;
    plan.ky[4] = 0;
    plan.kx[4] = 0;
    plan.shift[4] = 0;
    EXPECT_TRUE(names(refusal(plan, 5, 3), "filter 0 holds weights"))
        << "a +129 weight";
  }
  // Many shift-61 entries on one tap, valid under a 61-shift window: the
  // sum must refuse before it can overflow int64.
  quant::Pow2Config wide;
  wide.e_min = -61;
  wide.e_max = 0;
  inference::ShiftPlan big;
  big.filters = 1;
  for (int e = 0; e < 8; ++e) {
    big.channel.push_back(0);
    big.ky.push_back(0);
    big.kx.push_back(0);
    big.shift.push_back(61);
    big.sign.push_back(1);
  }
  for (const std::int64_t begin : {0, 8}) big.filter_begin.push_back(begin);
  EXPECT_TRUE(names(refusal(big, 1, 1, wide), "filter 0 sums a weight past"));

  // 127 x sum |w| against INT32_MAX, at the bound's exact edge: 132,104
  // weights of -128 (one shift-7 entry each) fit, one more does not.
  quant::Pow2Config seven;
  seven.e_min = -7;
  const auto row_of = [](std::int32_t channels) {
    inference::ShiftPlan plan;
    plan.filters = 1;
    for (std::int32_t c = 0; c < channels; ++c) {
      plan.channel.push_back(c);
      plan.ky.push_back(0);
      plan.kx.push_back(0);
      plan.shift.push_back(7);
      plan.sign.push_back(-1);
    }
    for (const std::int64_t begin : {0, channels}) {
      plan.filter_begin.push_back(begin);
    }
    return plan;
  };
  EXPECT_EQ(refusal(row_of(132104), 132104, 1, seven), "")
      << "127 * 128 * 132104 fits int32";
  EXPECT_TRUE(names(refusal(row_of(132105), 132105, 1, seven),
                    "filter 0's sum of |w| is 16909440"))
      << "127 * 128 * 132105 passes INT32_MAX";

  // Geometry the entries cannot pay for. With every filter pruned the word
  // count overflows int64 (2^22 groups x 2^48 taps); with one entry a
  // 2^15 x 2^15 kernel asks for 2^30 words. Both refuse before allocating.
  inference::ShiftPlan pruned;
  pruned.filters = 2;
  for (const std::int64_t begin : {0, 0, 0}) pruned.filter_begin.push_back(begin);
  const std::int64_t huge = std::int64_t{1} << 24;
  EXPECT_TRUE(names(refusal(pruned, huge, huge), "words per plan entry"))
      << "a word count past int64";
  const inference::DensePack empty = inference::pack_dense(pruned, 5, 3, {});
  EXPECT_TRUE(empty.filters.empty()) << "an all-pruned plan of sane geometry";
  EXPECT_TRUE(empty.words.empty());
  inference::ShiftPlan one;
  one.filters = 1;
  one.channel.push_back(0);
  one.ky.push_back(0);
  one.kx.push_back(0);
  one.shift.push_back(0);
  one.sign.push_back(1);
  for (const std::int64_t begin : {0, 1}) one.filter_begin.push_back(begin);
  EXPECT_EQ(refusal(one, 4, 1), "") << "one word for one entry";
  EXPECT_TRUE(names(refusal(one, 1, std::int64_t{1} << 15),
                    "words per plan entry"))
      << "2^30 words for one entry";
  EXPECT_TRUE(names(refusal(one, 17, 1), "words per plan entry"))
      << "5 words for one entry";
}

// Bias handling must match the oracle's (bias folds in after
// dequantization, independent of the entry walk).
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
  const auto qx = inference::quantize_tensor(x, 8);
  expect_bitwise_equal(
      inference::oracle::TermWalkLinear(wlq, 2, config, bl).run(qx),
      inference::oracle::run_linear(lin, qx), "linear+bias");
}

}  // namespace
}  // namespace flightnn
