// Differential property suite for the vectorized shift-stream kernels: the
// AVX2 tier must be byte-identical to the scalar tier and to the pre-plan
// term walk (term_walk_oracle.hpp) under every geometry the plan compiler can produce --
// odd output widths (16-wide / 8-wide / masked-tail paths), strides,
// paddings, k_max, pruning, linear layers (1x1 convs on a 1x1 plane), thread
// counts, and artifact-adopted plans whose streams are zero-copy views into
// an mmap. The direct kernel test runs the dispatch-table function pointers
// on exactly-sized buffers, so the ASan CI preset turns any masked-lane
// overread into a hard failure (the vector kernel must touch no byte the
// scalar tier would not). Tier comparisons skip on hosts without AVX2,
// where tier 1 resolves to the scalar table and the comparison would be
// vacuous.

#include "inference/shift_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/quantize_model.hpp"
#include "inference/quantized_network.hpp"
#include "inference/shift_engine.hpp"
#include "models/networks.hpp"
#include "quant/lightnn.hpp"
#include "runtime/thread_pool.hpp"
#include "serialize/artifact.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "term_walk_oracle.hpp"

namespace flightnn::inference {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Restores runtime dispatch on scope exit so a failing assertion cannot
// leak a pinned tier into later tests.
struct TierGuard {
  TierGuard() = default;
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
  ~TierGuard() { set_kernel_tier_override(-1); }
};

bool host_has_vector_tier() {
  return shift_kernels_for(KernelTier::kAvx2).tier == KernelTier::kAvx2;
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Zero the first `filters` filter rows of an OIHW (or [out, in]) tensor.
void prune_filters(Tensor& wq, std::int64_t filters) {
  const std::int64_t row = wq.numel() / wq.shape()[0];
  for (std::int64_t f = 0; f < filters; ++f) {
    float* data = wq.data() + f * row;
    std::fill(data, data + row, 0.0F);
  }
}

// --- Engine-level sweeps ---------------------------------------------------

// Scalar tier, vector tier and the term walk on one conv layer.
void expect_conv_tiers_match_reference(const Tensor& wq, int k_max,
                                       std::int64_t stride,
                                       std::int64_t padding,
                                       const QuantizedActivations& qimg,
                                       const std::string& what) {
  const quant::Pow2Config config;
  const ShiftConv2d engine(wq, k_max, config, stride, padding);
  set_kernel_tier_override(0);
  const Tensor scalar_out = engine.run(qimg);
  set_kernel_tier_override(1);
  const Tensor vector_out = engine.run(qimg);
  set_kernel_tier_override(-1);
  const Tensor reference_out =
      oracle::TermWalkConv2d(wq, k_max, config, stride, padding).run(qimg);
  EXPECT_TRUE(bytes_equal(scalar_out, vector_out)) << what;
  EXPECT_TRUE(bytes_equal(vector_out, reference_out)) << what;
}

TEST(ShiftKernelDiffTest, ConvSweepTiersAndReferenceBitIdentical) {
  if (!host_has_vector_tier()) GTEST_SKIP() << "host lacks AVX2";
  TierGuard guard;
  const quant::Pow2Config config;
  support::Rng rng(101);
  // Odd input sides so output widths hit the 16-wide, 8-wide and masked
  // tail paths at every stride; padding up to and past the kernel's reach
  // puts whole output rows and columns on pad cells.
  const Shape img_shape{3, 19, 17};
  Tensor img = Tensor::randn(img_shape, rng);
  const auto qimg = quantize_image(img, 8);
  for (const std::int64_t kernel : {1, 3, 5}) {
    for (const std::int64_t stride : {1, 2, 3}) {
      for (const std::int64_t padding : {0, 1, 2}) {
        for (const int k_max : {1, 2, 3}) {
          for (const bool prune : {false, true}) {
            Tensor w = Tensor::randn(Shape{6, 3, kernel, kernel}, rng, 0.0F,
                                     0.3F);
            Tensor wq = quant::quantize_lightnn(w, k_max, config);
            if (prune) prune_filters(wq, 3);
            expect_conv_tiers_match_reference(
                wq, k_max, stride, padding, qimg,
                "k=" + std::to_string(kernel) + " s=" +
                    std::to_string(stride) + " p=" + std::to_string(padding) +
                    " k_max=" + std::to_string(k_max) +
                    " prune=" + std::to_string(prune));
          }
        }
      }
    }
  }
  // A ResNet downsampling shortcut: 1x1, stride 2, padding 0 on an even
  // plane, so only the even rows and the first column phase are read.
  const auto qblock = quantize_image(Tensor::randn(Shape{8, 16, 16}, rng), 8);
  for (const int k_max : {1, 2}) {
    Tensor w = Tensor::randn(Shape{16, 8, 1, 1}, rng, 0.0F, 0.3F);
    expect_conv_tiers_match_reference(quant::quantize_lightnn(w, k_max, config),
                                      k_max, 2, 0, qblock,
                                      "shortcut k_max=" + std::to_string(k_max));
  }
}

// Activations with |q| up to 2^26: too large for the int32 bound.
QuantizedActivations wide_activations(const Shape& shape, support::Rng& rng) {
  QuantizedActivations wide;
  wide.shape = shape;
  for (std::int64_t i = 0; i < shape.numel(); ++i) {
    wide.values.push_back(
        static_cast<std::int32_t>(rng.uniform_index(1U << 27)) - (1 << 26));
  }
  return wide;
}

// Activations too large for the int32 bound send every tier to the one
// int64 scalar loop, which walks the same padded, stride-phased plane.
TEST(ShiftKernelDiffTest, WideAccumulatorPathMatchesReference) {
  TierGuard guard;
  const quant::Pow2Config config;
  support::Rng rng(108);
  const QuantizedActivations wide = wide_activations(Shape{3, 11, 9}, rng);
  for (const std::int64_t stride : {1, 2}) {
    for (const std::int64_t padding : {0, 1}) {
      Tensor w = Tensor::randn(Shape{4, 3, 3, 3}, rng, 0.0F, 0.3F);
      Tensor wq = quant::quantize_lightnn(w, 2, config);
      const ShiftConv2d engine(wq, 2, config, stride, padding);
      const ShiftPlan& plan = engine.plan();
      ASSERT_GT(*std::max_element(plan.filter_gain.begin(),
                                  plan.filter_gain.end()),
                std::int64_t{0x7fffffff} / wide.abs_max())
          << "these activations must fail the narrow bound";
      expect_conv_tiers_match_reference(
          wq, 2, stride, padding, wide,
          "wide s=" + std::to_string(stride) + " p=" + std::to_string(padding));
    }
  }
  // A linear layer: the 1x1 conv on a 1x1 plane takes the same int64 loop.
  const QuantizedActivations wide_vec = wide_activations(Shape{40}, rng);
  Tensor w = Tensor::randn(Shape{6, 40}, rng, 0.0F, 0.3F);
  Tensor wq = quant::quantize_lightnn(w, 2, config);
  const ShiftConv2d linear = oracle::linear_engine(wq, 2, config);
  const ShiftPlan& plan = linear.plan();
  ASSERT_GT(*std::max_element(plan.filter_gain.begin(), plan.filter_gain.end()),
            std::int64_t{0x7fffffff} / wide_vec.abs_max())
      << "these activations must fail the narrow bound";
  set_kernel_tier_override(0);
  const Tensor scalar_out = oracle::run_linear(linear, wide_vec);
  set_kernel_tier_override(1);
  const Tensor vector_out = oracle::run_linear(linear, wide_vec);
  set_kernel_tier_override(-1);
  const Tensor reference_out =
      oracle::TermWalkLinear(wq, 2, config).run(wide_vec);
  EXPECT_TRUE(bytes_equal(scalar_out, vector_out)) << "wide linear";
  EXPECT_TRUE(bytes_equal(vector_out, reference_out)) << "wide linear";
}

TEST(ShiftKernelDiffTest, LinearSweepTiersAndReferenceBitIdentical) {
  if (!host_has_vector_tier()) GTEST_SKIP() << "host lacks AVX2";
  TierGuard guard;
  const quant::Pow2Config config;
  support::Rng rng(102);
  // Feature counts straddling the 8-lane vector width, including rows whose
  // entry counts land on 1/7/8/9 after pruning.
  for (const std::int64_t in_features : {1, 7, 8, 9, 31, 64}) {
    for (const std::int64_t out_features : {1, 5, 10}) {
      for (const int k_max : {1, 2}) {
        for (const bool prune : {false, true}) {
          Tensor w = Tensor::randn(Shape{out_features, in_features}, rng,
                                   0.0F, 0.3F);
          Tensor wq = quant::quantize_lightnn(w, k_max, config);
          if (prune) prune_filters(wq, out_features / 2);
          Tensor x = Tensor::randn(Shape{in_features}, rng);
          const auto qx = quantize_tensor(x, 8);
          const ShiftConv2d engine = oracle::linear_engine(wq, k_max, config);
          set_kernel_tier_override(0);
          const Tensor scalar_out = oracle::run_linear(engine, qx);
          set_kernel_tier_override(1);
          const Tensor vector_out = oracle::run_linear(engine, qx);
          set_kernel_tier_override(-1);
          const Tensor reference_out =
              oracle::TermWalkLinear(wq, k_max, config).run(qx);
          EXPECT_TRUE(bytes_equal(scalar_out, vector_out))
              << "in=" << in_features << " out=" << out_features
              << " k_max=" << k_max << " prune=" << prune;
          EXPECT_TRUE(bytes_equal(vector_out, reference_out))
              << "in=" << in_features << " out=" << out_features
              << " k_max=" << k_max << " prune=" << prune;
        }
      }
    }
  }
}

// Pruning removes entries, and a stride changes only the padded plane's
// layout; neither may change which tier a layer dispatches to.
TEST(ShiftKernelDiffTest, KernelTierReporting) {
  TierGuard guard;
  const quant::Pow2Config config;
  support::Rng rng(103);
  Tensor w = Tensor::randn(Shape{8, 4, 3, 3}, rng, 0.0F, 0.3F);
  Tensor wq = quant::quantize_lightnn(w, 2, config);
  Tensor wq_pruned(wq);
  prune_filters(wq_pruned, 4);
  const ShiftConv2d dense(wq, 2, config, 1, 1);
  const ShiftConv2d pruned(wq_pruned, 2, config, 1, 1);
  const ShiftConv2d strided(wq, 2, config, 2, 1);
  EXPECT_STREQ(dense.kernel_tier(8), pruned.kernel_tier(8));
  EXPECT_STREQ(strided.kernel_tier(8), dense.kernel_tier(8));
  set_kernel_tier_override(0);
  EXPECT_STREQ(dense.kernel_tier(8), "scalar");
  EXPECT_STREQ(strided.kernel_tier(8), "scalar");
  set_kernel_tier_override(1);
  if (host_has_vector_tier()) {
    EXPECT_STREQ(dense.kernel_tier(8), "avx2");
    EXPECT_STREQ(strided.kernel_tier(8), "avx2");
  }
}

// --- Direct kernel-table differential -------------------------------------
// Exactly-sized buffers: under ASan any read or write outside what the
// scalar tier touches (masked tail lanes) aborts.

TEST(ShiftKernelDiffTest, ConvInteriorKernelDirect) {
  if (!host_has_vector_tier()) GTEST_SKIP() << "host lacks AVX2";
  const ConvInteriorFn scalar_fn =
      shift_kernels_for(KernelTier::kScalar).conv_interior_i32;
  const ConvInteriorFn vector_fn =
      shift_kernels_for(KernelTier::kAvx2).conv_interior_i32;
  support::Rng rng(104);
  const std::int64_t channels = 2;
  const std::int64_t kernel = 3;
  // Output widths sweep the kernel's block decomposition: masked-only
  // (n<8), 8+masked, 16, 16+masked, 16+8+masked and 2x16+masked; odd
  // heights exercise the trailing single row.
  for (const std::int64_t stride : {1, 2}) {
    for (const std::int64_t out_w : {5, 9, 11, 16, 18, 23, 26, 34}) {
      for (const std::int64_t out_h : {4, 5, 9}) {
        // The engine's padded, stride-phased plane (ShiftConv2d::run): the
        // rows and phase columns some output reads, `stride` phases per
        // row. Its contents are arbitrary here; the kernel cannot tell a
        // pad cell from an input element.
        const std::int64_t phase_w = out_w + (kernel - 1) / stride;
        const std::int64_t row_w = stride * phase_w;
        const std::int64_t plane = ((out_h - 1) * stride + kernel) * row_w;
        std::vector<std::int32_t> in(static_cast<std::size_t>(channels * plane));
        for (auto& v : in) {
          v = static_cast<std::int32_t>(rng.uniform_index(255)) - 127;
        }
        // Entry streams in plan layout: offsets into the plane plus a
        // per-entry int32 multiplier. Entry counts 1/7/9/all exercise short
        // filters whose streams end mid-vector.
        std::vector<std::int32_t> off;
        std::vector<std::int32_t> mult;
        for (std::int64_t c = 0; c < channels; ++c) {
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              off.push_back(static_cast<std::int32_t>(
                  c * plane + ky * row_w + (kx % stride) * phase_w +
                  kx / stride));
              mult.push_back(
                  static_cast<std::int32_t>(rng.uniform_index(129)) - 64);
            }
          }
        }
        const ConvInteriorGeom geom{stride * row_w, out_h, out_w};
        for (const std::int64_t entries :
             {std::int64_t{1}, std::int64_t{7}, std::int64_t{9},
              static_cast<std::int64_t>(off.size())}) {
          std::vector<std::int32_t> acc_scalar(
              static_cast<std::size_t>(out_h * out_w), 0);
          std::vector<std::int32_t> acc_vector(acc_scalar);
          scalar_fn(in.data(), off.data(), mult.data(), 0, entries, geom,
                    acc_scalar.data());
          vector_fn(in.data(), off.data(), mult.data(), 0, entries, geom,
                    acc_vector.data());
          EXPECT_EQ(acc_scalar, acc_vector)
              << "stride=" << stride << " out_w=" << out_w
              << " out_h=" << out_h << " entries=" << entries;
        }
      }
    }
  }
}

// --- Whole network across thread counts and tiers --------------------------

std::uint32_t xorshift32(std::uint32_t& state) {
  state ^= state << 13;
  state ^= state >> 17;
  state ^= state << 5;
  return state;
}

void fill_grid(Tensor& tensor, std::uint32_t& state) {
  float* data = tensor.data();
  for (std::int64_t i = 0; i < tensor.numel(); ++i) {
    const auto raw = static_cast<int>(xorshift32(state) % 129U) - 64;
    data[i] = static_cast<float>(raw) / 64.0F;
  }
}

std::unique_ptr<nn::Sequential> small_model() {
  models::BuildOptions build;
  build.classes = 10;
  build.in_channels = 3;
  build.width_scale = 0.125F;
  build.seed = 23;
  auto model = models::build_network(models::table1_network(1), build);
  std::uint32_t state = 0x2545F491U;
  for (nn::Parameter* parameter : model->parameters()) {
    fill_grid(parameter->value, state);
  }
  core::install_lightnn(*model, 2);
  return model;
}

TEST(ShiftKernelDiffTest, WholeNetworkThreadAndTierSweep) {
  if (!host_has_vector_tier()) GTEST_SKIP() << "host lacks AVX2";
  TierGuard guard;
  auto model = small_model();
  const auto network =
      QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  support::Rng rng(106);
  Tensor image = Tensor::randn(Shape{3, 16, 16}, rng);
  set_kernel_tier_override(0);
  runtime::set_num_threads(1);
  const Tensor baseline = network.run(image);
  for (const int threads : {1, 2, 4, 7}) {
    runtime::set_num_threads(threads);
    for (const int tier : {0, 1}) {
      set_kernel_tier_override(tier);
      const Tensor logits = network.run(image);
      EXPECT_TRUE(bytes_equal(baseline, logits))
          << "threads=" << threads << " tier=" << tier;
    }
  }
  runtime::set_num_threads(1);
}

// --- Artifact-adopted plans (zero-copy mmap views) -------------------------

TEST(ShiftKernelDiffTest, ArtifactPlansRunBothTiersBitIdentical) {
  if (!host_has_vector_tier()) GTEST_SKIP() << "host lacks AVX2";
  TierGuard guard;
  runtime::set_num_threads(1);
  auto model = small_model();
  const Shape input_shape{1, 3, 16, 16};
  const auto direct = QuantizedNetwork::compile(*model, input_shape);
  auto program = compile_program(*model, input_shape);
  const std::string path = ::testing::TempDir() + "/shift_kernel_diff_" +
                           std::to_string(::testing::UnitTest::GetInstance()
                                              ->random_seed()) +
                           ".flnart";
  serialize::save_artifact(program, path);
  {
    // mmap-backed load: the adopted plans' core streams are views into the
    // mapping; the derived streams are built (and owned) by the adopting
    // constructor. Both tiers must match the weights-built network byte for
    // byte.
    const serialize::ArtifactModel mapped = serialize::ArtifactModel::load(path);
    support::Rng rng(107);
    Tensor image = Tensor::randn(Shape{3, 16, 16}, rng);
    set_kernel_tier_override(0);
    const Tensor direct_scalar = direct.run(image);
    const Tensor mapped_scalar = mapped.network().run(image);
    set_kernel_tier_override(1);
    const Tensor direct_vector = direct.run(image);
    const Tensor mapped_vector = mapped.network().run(image);
    EXPECT_TRUE(bytes_equal(direct_scalar, mapped_scalar));
    EXPECT_TRUE(bytes_equal(direct_scalar, direct_vector));
    EXPECT_TRUE(bytes_equal(direct_scalar, mapped_vector));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flightnn::inference
