// Differential property suite for the dense conv kernels: every dense tier
// the host has (AVX2, AVX-512 VNNI) must be byte-identical to the scalar
// tier and to the pre-plan term walk (term_walk_oracle.hpp) under every
// geometry the plan compiler can produce -- output widths that hit the
// 16-lane and 8-lane tails, strides, paddings, channel counts that are not a
// multiple of four, pruning, linear layers (1x1 convs on a 1x1 plane),
// thread counts, and plans adopted from an mmap-ed artifact. A filter
// reaching +128 packs negated and matches too;
// what the kernels cannot run (a filter int8 holds neither as it is nor
// negated, codes outside u8) throws CheckFailure, at adoption or at run.
// The direct kernel test runs the dispatch-table
// function pointers on exactly-sized buffers, so the ASan CI preset turns
// any overread past a plane into a hard failure. Tier comparisons cover
// only the tiers the host has; on a host without AVX2 only the scalar tier
// and the term walk are compared.

#include "inference/shift_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/quantize_model.hpp"
#include "inference/quantized_network.hpp"
#include "inference/shift_engine.hpp"
#include "models/networks.hpp"
#include "quant/lightnn.hpp"
#include "runtime/thread_pool.hpp"
#include "serialize/artifact.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
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

bool host_has(KernelTier tier) { return shift_kernels_for(tier).tier == tier; }

// Every tier this host can run, scalar first.
std::vector<KernelTier> host_tiers() {
  std::vector<KernelTier> tiers{KernelTier::kScalar};
  for (const KernelTier tier : {KernelTier::kAvx2, KernelTier::kVnni}) {
    if (host_has(tier)) tiers.push_back(tier);
  }
  return tiers;
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Zero filter rows of an OIHW (or [out, in]) tensor: the first half, or
// every odd one (live filters that are not contiguous in the output).
enum class Prune { kNone, kFirstHalf, kOdd };

void prune_filters(Tensor& wq, Prune prune) {
  const std::int64_t filters = wq.shape()[0];
  const std::int64_t row = wq.numel() / filters;
  for (std::int64_t f = 0; f < filters; ++f) {
    const bool zero = (prune == Prune::kFirstHalf && f < filters / 2) ||
                      (prune == Prune::kOdd && f % 2 == 1);
    if (zero) std::fill(wq.data() + f * row, wq.data() + (f + 1) * row, 0.0F);
  }
}

// --- Engine-level sweeps ---------------------------------------------------

// Every host tier on one engine: each must report its own name and match
// the term walk's output byte for byte.
void expect_tiers_match(const ShiftConv2d& engine, const Tensor& reference,
                        const QuantizedActivations& input,
                        const std::string& what) {
  for (const KernelTier tier : host_tiers()) {
    set_kernel_tier_override(static_cast<int>(tier));
    EXPECT_STREQ(engine.kernel_tier(), kernel_tier_name(tier))
        << what << " tier=" << kernel_tier_name(tier);
    const Tensor out = input.shape.rank() == 1
                           ? oracle::run_linear(engine, input)
                           : engine.run(input);
    EXPECT_TRUE(bytes_equal(out, reference))
        << what << " tier=" << kernel_tier_name(tier);
  }
  set_kernel_tier_override(-1);
}

void expect_conv_tiers_match_reference(const Tensor& wq, int k_max,
                                       std::int64_t stride,
                                       std::int64_t padding,
                                       const QuantizedActivations& qimg,
                                       const std::string& what) {
  const quant::Pow2Config config;
  const ShiftConv2d engine(wq, k_max, config, stride, padding);
  const Tensor reference =
      oracle::TermWalkConv2d(wq, k_max, config, stride, padding).run(qimg);
  expect_tiers_match(engine, reference, qimg, what);
}

TEST(ShiftKernelDiffTest, ConvSweepTiersAndReferenceBitIdentical) {
  TierGuard guard;
  const quant::Pow2Config config;
  support::Rng rng(101);
  // Input widths 17 and 37 give output widths 17, 9, 6 and 37, 19, 13 (one
  // less at some paddings) across the strides: full 16- and 8-lane tiles
  // plus every kind of masked tail. Odd heights leave a trailing single
  // row. Padding up to and past the kernel's reach puts whole output rows
  // and columns on pad cells.
  for (const std::int64_t in_ch : {1, 3, 4, 5, 8}) {
    for (const std::int64_t in_w : {17, 37}) {
      const auto qimg = quantize_image(
          Tensor::randn(Shape{in_ch, in_w == 17 ? 19 : 7, in_w}, rng), 8);
      for (const std::int64_t kernel : {1, 3, 5}) {
        for (const std::int64_t stride : {1, 2, 3}) {
          for (const std::int64_t padding : {0, 1, 2}) {
            for (const int k_max : {1, 2}) {
              for (const Prune prune :
                   {Prune::kNone, Prune::kFirstHalf, Prune::kOdd}) {
                Tensor w = Tensor::randn(Shape{6, in_ch, kernel, kernel}, rng,
                                         0.0F, 0.3F);
                Tensor wq = quant::quantize_lightnn(w, k_max, config);
                prune_filters(wq, prune);
                expect_conv_tiers_match_reference(
                    wq, k_max, stride, padding, qimg,
                    "c=" + std::to_string(in_ch) +
                        " w=" + std::to_string(in_w) +
                        " k=" + std::to_string(kernel) +
                        " s=" + std::to_string(stride) +
                        " p=" + std::to_string(padding) +
                        " k_max=" + std::to_string(k_max) +
                        " prune=" + std::to_string(static_cast<int>(prune)));
              }
            }
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

TEST(ShiftKernelDiffTest, LinearSweepTiersAndReferenceBitIdentical) {
  TierGuard guard;
  const quant::Pow2Config config;
  support::Rng rng(102);
  // Feature counts around the four-channel word (1, 3, 4, 5) and across
  // many groups; filter counts around the four-filter block.
  for (const std::int64_t in_features : {1, 3, 4, 5, 7, 8, 9, 31, 64}) {
    for (const std::int64_t out_features : {1, 5, 10}) {
      for (const int k_max : {1, 2}) {
        for (const Prune prune : {Prune::kNone, Prune::kFirstHalf}) {
          Tensor w = Tensor::randn(Shape{out_features, in_features}, rng,
                                   0.0F, 0.3F);
          Tensor wq = quant::quantize_lightnn(w, k_max, config);
          prune_filters(wq, prune);
          const auto qx = quantize_tensor(Tensor::randn(Shape{in_features}, rng), 8);
          const ShiftConv2d engine = oracle::linear_engine(wq, k_max, config);
          expect_tiers_match(
              engine, oracle::TermWalkLinear(wq, k_max, config).run(qx), qx,
              "in=" + std::to_string(in_features) +
                  " out=" + std::to_string(out_features) +
                  " k_max=" + std::to_string(k_max) +
                  " prune=" + std::to_string(static_cast<int>(prune)));
        }
      }
    }
  }
}

// The dense gate's cases, at stride 1 and 2. A filter reaching +128 (two
// 2^0 terms at LightNN-2) packs negated and matches the term walk under
// every tier. Adoption refuses +128 beside -128 in one filter and a
// LightNN-3 weight past int8 (1 + 1 + 1 = 192 units); run() refuses 9-bit
// codes, and hand-built codes of |q| = 128, which no u8 lane holds.
TEST(ShiftKernelDiffTest, GateCasesNegateOrRefuse) {
  TierGuard guard;
  const quant::Pow2Config config;
  support::Rng rng(109);
  const auto qimg = quantize_image(Tensor::randn(Shape{5, 9, 11}, rng), 8);
  const auto q9 = quantize_image(Tensor::randn(Shape{5, 9, 11}, rng), 9);
  ASSERT_GT(q9.abs_max(), 127) << "9-bit codes must overflow a u8 lane";
  for (const std::int64_t stride : {1, 2}) {
    const std::string at = " stride=" + std::to_string(stride);
    Tensor plus = quant::quantize_lightnn(
        Tensor::randn(Shape{6, 5, 3, 3}, rng, 0.0F, 0.3F), 2, config);
    plus.data()[7] = 2.0F;
    const ShiftConv2d negated(plus, 2, config, stride, 1);
    EXPECT_EQ(negated.adopted().plan.negated[0], 1) << at;
    expect_tiers_match(
        negated, oracle::TermWalkConv2d(plus, 2, config, stride, 1).run(qimg),
        qimg, "+128 weight" + at);

    Tensor both(plus);
    both.data()[8] = -2.0F;
    Tensor wide = quant::quantize_lightnn(
        Tensor::randn(Shape{6, 5, 3, 3}, rng, 0.0F, 0.3F), 3, config);
    wide.data()[7] = 3.0F;
    for (const auto& [wq, k_max, what] :
         {std::tuple<const Tensor&, int, const char*>{both, 2, "+128 and -128"},
          std::tuple<const Tensor&, int, const char*>{wide, 3, "192 at k_max 3"}}) {
      EXPECT_THROW((void)ShiftConv2d(wq, k_max, config, stride, 1),
                   support::CheckFailure)
          << what << at;
    }

    for (const KernelTier tier : host_tiers()) {
      set_kernel_tier_override(static_cast<int>(tier));
      EXPECT_THROW((void)negated.run(q9), support::CheckFailure)
          << "act_bits 9" << at << " tier=" << kernel_tier_name(tier);
    }
    set_kernel_tier_override(-1);
  }
  // Hand-built codes carry no cached max|q| (max_abs = -1), so run() scans
  // them: 127 is the widest code it takes, either sign.
  const Tensor wq = quant::quantize_lightnn(
      Tensor::randn(Shape{2, 1, 1, 1}, rng, 0.0F, 0.3F), 2, config);
  const ShiftConv2d engine(wq, 2, config, 1, 0);
  for (const std::int32_t q : {127, -127, 128, -128}) {
    QuantizedActivations hand;
    hand.shape = Shape{1, 2, 2};
    hand.values = {0, q, 1, -1};
    if (q == 127 || q == -127) {
      EXPECT_TRUE(bytes_equal(
          engine.run(hand),
          oracle::TermWalkConv2d(wq, 2, config, 1, 0).run(hand)))
          << "q=" << q;
    } else {
      EXPECT_THROW((void)engine.run(hand), support::CheckFailure) << "q=" << q;
    }
  }
}

// Pruning removes filters, and a stride changes only the plane's layout;
// every engine reports the active dense tier.
TEST(ShiftKernelDiffTest, KernelTierReporting) {
  TierGuard guard;
  const quant::Pow2Config config;
  support::Rng rng(103);
  Tensor w = Tensor::randn(Shape{8, 4, 3, 3}, rng, 0.0F, 0.3F);
  Tensor wq = quant::quantize_lightnn(w, 2, config);
  Tensor wq_pruned(wq);
  prune_filters(wq_pruned, Prune::kFirstHalf);
  const ShiftConv2d dense(wq, 2, config, 1, 1);
  const ShiftConv2d pruned(wq_pruned, 2, config, 1, 1);
  const ShiftConv2d strided(wq, 2, config, 2, 1);
  EXPECT_STREQ(dense.kernel_tier(),
               kernel_tier_name(active_shift_kernels().tier));
  for (const KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kVnni}) {
    set_kernel_tier_override(static_cast<int>(tier));
    const char* name = host_has(tier) ? kernel_tier_name(tier) : "scalar";
    EXPECT_STREQ(dense.kernel_tier(), name);
    EXPECT_STREQ(pruned.kernel_tier(), name);
    EXPECT_STREQ(strided.kernel_tier(), name);
  }
  EXPECT_STREQ(kernel_tier_name(KernelTier::kVnni), "vnni");
}

// --- Direct kernel-table differential -------------------------------------
// Exactly-sized code and output planes: under ASan any full-width access
// past what the scalar tier touches aborts, and the masked tails must stay
// inside both planes.

TEST(ShiftKernelDiffTest, DenseKernelDirect) {
  const ShiftKernels& scalar = shift_kernels_for(KernelTier::kScalar);
  support::Rng rng(104);
  const std::int64_t kernel = 3;
  const auto random_word = [&] {
    return static_cast<std::uint32_t>(rng.uniform_index(1U << 16)) << 16 |
           static_cast<std::uint32_t>(rng.uniform_index(1U << 16));
  };
  for (const KernelTier tier : host_tiers()) {
    if (tier == KernelTier::kScalar) continue;
    const ShiftKernels& vector = shift_kernels_for(tier);
    // Output widths around both lane counts; heights with and without a
    // trailing single row; one and two channel groups; 1-4 filters.
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t out_w : {1, 5, 8, 9, 15, 16, 17, 23, 32, 33}) {
        for (const std::int64_t out_h : {1, 2, 5}) {
          for (const std::int64_t groups : {1, 2}) {
            // The engine's code plane (ShiftConv2d::run): the rows and
            // phase columns some output reads, `stride` phases per row.
            // Any word values are legal; the kernels compute mod 2^32.
            const std::int64_t phase_w = out_w + (kernel - 1) / stride;
            const std::int64_t row_w = stride * phase_w;
            const std::int64_t channel = ((out_h - 1) * stride + kernel) * row_w;
            std::vector<std::uint32_t> codes(
                static_cast<std::size_t>(groups * channel));
            for (auto& word : codes) word = random_word();
            std::vector<std::int32_t> tap_off;
            for (std::int64_t g = 0; g < groups; ++g) {
              for (std::int64_t ky = 0; ky < kernel; ++ky) {
                for (std::int64_t kx = 0; kx < kernel; ++kx) {
                  tap_off.push_back(static_cast<std::int32_t>(
                      g * channel + ky * row_w + (kx % stride) * phase_w +
                      kx / stride));
                }
              }
            }
            const auto taps = static_cast<std::int64_t>(tap_off.size());
            std::vector<std::int32_t> weights(
                static_cast<std::size_t>(kDenseFilterBlock * taps));
            for (auto& w : weights) w = static_cast<std::int32_t>(random_word());
            std::vector<std::int32_t> correction(kDenseFilterBlock);
            for (auto& c : correction) c = static_cast<std::int32_t>(random_word());
            const DenseConvGeom geom{stride * row_w, out_h, out_w, taps};
            for (int filters = 1; filters <= kDenseFilterBlock; ++filters) {
              const auto plane = static_cast<std::size_t>(out_h * out_w);
              std::vector<std::vector<std::int32_t>> want(
                  static_cast<std::size_t>(filters),
                  std::vector<std::int32_t>(plane));
              std::vector<std::vector<std::int32_t>> got(want);
              std::int32_t* want_at[kDenseFilterBlock] = {};
              std::int32_t* got_at[kDenseFilterBlock] = {};
              for (int j = 0; j < filters; ++j) {
                want_at[j] = want[static_cast<std::size_t>(j)].data();
                got_at[j] = got[static_cast<std::size_t>(j)].data();
              }
              scalar.dense_conv(codes.data(), tap_off.data(), weights.data(),
                                correction.data(), filters, geom, want_at);
              vector.dense_conv(codes.data(), tap_off.data(), weights.data(),
                                correction.data(), filters, geom, got_at);
              EXPECT_EQ(want, got)
                  << kernel_tier_name(tier) << " stride=" << stride
                  << " out_w=" << out_w << " out_h=" << out_h
                  << " groups=" << groups << " filters=" << filters;
            }
          }
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
    for (const KernelTier tier : host_tiers()) {
      set_kernel_tier_override(static_cast<int>(tier));
      const Tensor logits = network.run(image);
      EXPECT_TRUE(bytes_equal(baseline, logits))
          << "threads=" << threads << " tier=" << kernel_tier_name(tier);
    }
  }
  runtime::set_num_threads(1);
}

// --- Artifact-adopted plans ------------------------------------------------

TEST(ShiftKernelDiffTest, ArtifactPlansRunEveryTierBitIdentical) {
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
    // mmap-backed load: each int8 pack is copied out of the mapping and
    // adopted. Every tier must match the weights-built network's scalar
    // tier byte for byte.
    const serialize::ArtifactModel mapped = serialize::ArtifactModel::load(path);
    support::Rng rng(107);
    Tensor image = Tensor::randn(Shape{3, 16, 16}, rng);
    set_kernel_tier_override(0);
    const Tensor direct_scalar = direct.run(image);
    for (const KernelTier tier : host_tiers()) {
      set_kernel_tier_override(static_cast<int>(tier));
      EXPECT_TRUE(bytes_equal(direct_scalar, direct.run(image)))
          << kernel_tier_name(tier);
      EXPECT_TRUE(bytes_equal(direct_scalar, mapped.network().run(image)))
          << kernel_tier_name(tier);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flightnn::inference
