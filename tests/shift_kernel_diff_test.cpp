// Differential property suite for the dense conv kernels: both tiles of
// every dense tier the host has (AVX2, AVX-512 VNNI) must be byte-identical
// to the scalar tier and to the pre-plan term walk (term_walk_oracle.hpp)
// under every geometry the plan compiler can produce -- output widths that
// hit the 16-lane and 8-lane tails, narrow planes, live counts around the
// 16-filter block, strides, paddings, channel counts that are not a
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

constexpr ConvTile kTiles[] = {ConvTile::kColumn, ConvTile::kFilter};

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

// Every host tier and both its tiles on one engine: each tier must report
// its own name and each tile match the term walk's output byte for byte. A
// rank-1 reference is a linear layer's [out] features, which the engine
// gives through run_linear.
void expect_tiers_match(const ShiftConv2d& engine, const Tensor& reference,
                        const QuantizedActivations& input,
                        const std::string& what) {
  for (const KernelTier tier : host_tiers()) {
    set_kernel_tier_override(static_cast<int>(tier));
    EXPECT_STREQ(engine.kernel_tier(), kernel_tier_name(tier))
        << what << " tier=" << kernel_tier_name(tier);
    for (const ConvTile tile : kTiles) {
      const Tensor out = reference.shape().rank() == 1
                             ? oracle::run_linear(engine, input, tile)
                             : engine.run(input, tile);
      EXPECT_TRUE(bytes_equal(out, reference))
          << what << " tier=" << kernel_tier_name(tier)
          << " tile=" << conv_tile_name(tile);
    }
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
  // The narrow planes the filter tile is for: outputs from 2x2 to 9x9 (row
  // lengths shorter than a tile of pixels, and pixel counts that leave
  // every tail of one), live counts around one and two blocks of 16 (odd
  // pruning leaves 6 to 17 of them), stride 2, and the 1x1 stride-2
  // shortcut onto 4x4.
  for (const std::int64_t side : {2, 3, 4, 5, 6, 7, 8, 9}) {
    for (const std::int64_t stride : {1, 2}) {
      const auto qimg = quantize_image(
          Tensor::randn(Shape{6, side * stride, side * stride}, rng), 8);
      for (const std::int64_t filters : {12, 16, 17, 33}) {
        for (const Prune prune : {Prune::kNone, Prune::kOdd}) {
          Tensor w =
              Tensor::randn(Shape{filters, 6, 3, 3}, rng, 0.0F, 0.3F);
          Tensor wq = quant::quantize_lightnn(w, 2, config);
          prune_filters(wq, prune);
          expect_conv_tiers_match_reference(
              wq, 2, stride, 1, qimg,
              "side=" + std::to_string(side) +
                  " s=" + std::to_string(stride) +
                  " filters=" + std::to_string(filters) +
                  " prune=" + std::to_string(static_cast<int>(prune)));
        }
      }
    }
  }
  const auto qstage = quantize_image(Tensor::randn(Shape{32, 8, 8}, rng), 8);
  for (const Prune prune : {Prune::kNone, Prune::kOdd}) {
    Tensor wq = quant::quantize_lightnn(
        Tensor::randn(Shape{33, 32, 1, 1}, rng, 0.0F, 0.3F), 2, config);
    prune_filters(wq, prune);
    expect_conv_tiers_match_reference(
        wq, 2, 2, 0, qstage,
        "shortcut onto 4x4 prune=" + std::to_string(static_cast<int>(prune)));
  }
}

// The rule run() takes its tile by: on VNNI the filter tile fills its lanes
// where a plane is narrower than a zmm of columns, and the column tile
// keeps planes a zmm wide; planes of fewer than 8 pixels count a whole
// filter-tile step; the scalar tier has one kernel.
TEST(ShiftKernelDiffTest, TileRulePicksTheFilterTileForNarrowPlanes) {
  for (const std::int64_t live : {16, 32, 64, 128}) {
    for (const std::int64_t side : {4, 8}) {
      EXPECT_EQ(pick_conv_tile(KernelTier::kVnni, side, side, live),
                ConvTile::kFilter)
          << side << "x" << side << " live=" << live;
    }
    for (const std::int64_t side : {16, 32}) {
      EXPECT_EQ(pick_conv_tile(KernelTier::kVnni, side, side, live),
                ConvTile::kColumn)
          << side << "x" << side << " live=" << live;
    }
    EXPECT_EQ(pick_conv_tile(KernelTier::kAvx2, 4, 4, live),
              ConvTile::kFilter)
        << "avx2 4x4 live=" << live;
    for (const std::int64_t side : {16, 32}) {
      EXPECT_EQ(pick_conv_tile(KernelTier::kAvx2, side, side, live),
                ConvTile::kColumn)
          << "avx2 " << side << "x" << side << " live=" << live;
    }
    for (const std::int64_t side : {1, 4, 32}) {
      EXPECT_EQ(pick_conv_tile(KernelTier::kScalar, side, side, live),
                ConvTile::kColumn);
    }
  }
  // One live filter fills one lane of the filter tile: the column tile.
  EXPECT_EQ(pick_conv_tile(KernelTier::kVnni, 4, 4, 1), ConvTile::kColumn);
  // A filter-tile step fills all 8 pixel accumulators, so a plane of fewer
  // pixels pays for 8: on VNNI a linear layer (a 1x1 plane) with up to 8
  // live outputs and a 2x2 plane with up to 4 keep the column tile, and
  // the networks' 10-output classifiers take the filter tile.
  for (const std::int64_t live : {1, 2, 5, 7, 8}) {
    EXPECT_EQ(pick_conv_tile(KernelTier::kVnni, 1, 1, live),
              ConvTile::kColumn)
        << "1x1 live=" << live;
  }
  EXPECT_EQ(pick_conv_tile(KernelTier::kVnni, 1, 1, 10), ConvTile::kFilter);
  for (const std::int64_t live : {1, 2, 4}) {
    EXPECT_EQ(pick_conv_tile(KernelTier::kVnni, 2, 2, live),
              ConvTile::kColumn)
        << "2x2 live=" << live;
  }
  EXPECT_EQ(pick_conv_tile(KernelTier::kVnni, 2, 2, 5), ConvTile::kFilter);
  EXPECT_EQ(pick_conv_tile(KernelTier::kAvx2, 1, 1, 10), ConvTile::kColumn);
  EXPECT_STREQ(conv_tile_name(ConvTile::kColumn), "column");
  EXPECT_STREQ(conv_tile_name(ConvTile::kFilter), "filter");

  // An engine picks by the active tier and its input's output plane.
  TierGuard guard;
  const quant::Pow2Config config;
  support::Rng rng(111);
  const ShiftConv2d engine(
      quant::quantize_lightnn(
          Tensor::randn(Shape{32, 8, 3, 3}, rng, 0.0F, 0.3F), 2, config),
      2, config, 1, 1);
  for (const KernelTier tier : host_tiers()) {
    set_kernel_tier_override(static_cast<int>(tier));
    for (const std::int64_t side : {4, 8, 16, 32}) {
      EXPECT_EQ(engine.tile(side, side), pick_conv_tile(tier, side, side, 32))
          << kernel_tier_name(tier) << " " << side;
    }
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
          const auto qx = quantize_image(
              Tensor::randn(Shape{in_features, 1, 1}, rng), 8);
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
// LightNN-3 weight past int8 (1 + 1 + 1 = 192 units); quantize_image
// refuses 9-bit codes, which no int8 holds. Hand-built codes take every
// int8, -128 included (+128 has no int8), and match the term walk too.
TEST(ShiftKernelDiffTest, GateCasesNegateOrRefuse) {
  TierGuard guard;
  const quant::Pow2Config config;
  support::Rng rng(109);
  const auto qimg = quantize_image(Tensor::randn(Shape{5, 9, 11}, rng), 8);
  EXPECT_THROW((void)quantize_image(Tensor::randn(Shape{5, 9, 11}, rng), 9),
               support::CheckFailure);
  // Random codes over the whole int8 range, with -128 and 127 at the two
  // ends of every row.
  QuantizedActivations full;
  full.shape = Shape{5, 9, 11};
  full.scale_exp = -3;
  for (std::int64_t i = 0; i < full.shape.numel(); ++i) {
    const std::int64_t x = i % 11;
    full.values.push_back(
        x == 0 ? -128
               : x == 10 ? 127
                         : static_cast<std::int8_t>(
                               static_cast<int>(rng.uniform_index(256)) - 128));
  }
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
    expect_tiers_match(
        negated, oracle::TermWalkConv2d(plus, 2, config, stride, 1).run(full),
        full, "+128 weight, full-range codes" + at);

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
  }
  const Tensor wq = quant::quantize_lightnn(
      Tensor::randn(Shape{2, 1, 1, 1}, rng, 0.0F, 0.3F), 2, config);
  const ShiftConv2d engine(wq, 2, config, 1, 0);
  for (const std::int8_t q : {127, -127, -128}) {
    QuantizedActivations hand;
    hand.shape = Shape{1, 2, 2};
    hand.values = {0, q, 1, -1};
    expect_tiers_match(engine,
                       oracle::TermWalkConv2d(wq, 2, config, 1, 0).run(hand),
                       hand, "q=" + std::to_string(q));
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
  // Each call covers [first, end) of the live filters: the whole layer, the
  // units run() makes (kColumnFilters or a block of kFilterBlock), and a
  // range that starts and ends inside a block.
  const auto call = [](DenseConvFn fn, const DenseConv& conv,
                       std::int64_t live, std::int64_t unit) {
    if (unit == 0) {
      fn(conv, 0, live);
      return;
    }
    if (unit < 0) {
      fn(conv, 1, live - 1);
      return;
    }
    for (std::int64_t first = 0; first < live; first += unit) {
      fn(conv, first, std::min(first + unit, live));
    }
  };
  for (const KernelTier tier : host_tiers()) {
    if (tier == KernelTier::kScalar) continue;
    const ShiftKernels& vector = shift_kernels_for(tier);
    // Every output width up to one past a zmm of columns, and widths that
    // take two full zmm (32, 33) or three and more ymm (23, 32, 33) per
    // row; heights with and without a trailing single row; one and two
    // channel groups; live counts around one, two and three blocks.
    std::vector<std::int64_t> widths;
    for (std::int64_t w = 1; w <= 17; ++w) widths.push_back(w);
    for (const std::int64_t w : {23, 32, 33}) widths.push_back(w);
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t out_w : widths) {
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
            for (const std::int64_t live : {1, 5, 15, 16, 17, 31, 33}) {
              // The adopted order: blocks of 16 filters, [tap][filter], the
              // last block zero-padded.
              const std::int64_t blocks =
                  (live + kFilterBlock - 1) / kFilterBlock;
              std::vector<std::int32_t> words(
                  static_cast<std::size_t>(blocks * kFilterBlock * taps), 0);
              for (std::int64_t j = 0; j < live; ++j) {
                for (std::int64_t t = 0; t < taps; ++t) {
                  words[static_cast<std::size_t>(
                      (j / kFilterBlock) * kFilterBlock * taps +
                      t * kFilterBlock + j % kFilterBlock)] =
                      static_cast<std::int32_t>(random_word());
                }
              }
              const auto n = static_cast<std::size_t>(live);
              std::vector<std::int32_t> correction(n);
              for (auto& c : correction) {
                c = static_cast<std::int32_t>(random_word());
              }
              // Live filters on every other output channel: the planes
              // between them must stay untouched.
              std::vector<std::int32_t> channels(n);
              for (std::size_t j = 0; j < n; ++j) {
                channels[j] = static_cast<std::int32_t>(2 * j);
              }
              const auto plane = static_cast<std::size_t>(out_h * out_w);
              std::vector<std::int32_t> want(plane * (2 * n - 1), 7);
              DenseConv conv{codes.data(), tap_off.data(), words.data(),
                             correction.data(), channels.data(), want.data(),
                             stride * row_w, out_h, out_w, taps};
              call(scalar.column_tile, conv, live, 0);
              for (const ConvTile tile : kTiles) {
                const std::int64_t unit =
                    tile == ConvTile::kFilter ? kFilterBlock : kColumnFilters;
                for (const std::int64_t split : {std::int64_t{0}, unit,
                                                 std::int64_t{-1}}) {
                  if (split < 0 && live < 3) continue;
                  std::vector<std::int32_t> got(want.size(), 7);
                  conv.out = got.data();
                  call(vector.dense_conv(tile), conv, live, split);
                  std::vector<std::int32_t> expected(want);
                  if (split < 0) {  // filters 0 and live - 1 are not run
                    std::fill_n(expected.begin(), plane, 7);
                    std::fill_n(expected.end() - static_cast<long>(plane),
                                plane, 7);
                  }
                  EXPECT_EQ(expected, got)
                      << kernel_tier_name(tier) << " " << conv_tile_name(tile)
                      << " split=" << split << " stride=" << stride
                      << " out_w=" << out_w << " out_h=" << out_h
                      << " groups=" << groups << " live=" << live;
                }
              }
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

// A layer large enough that the pool's gate splits it on both tiles (128
// filters, or 64 after odd pruning, at 8x8): every tier and tile gives the
// scalar tier's bytes at every thread count, however the units fall to the
// workers.
TEST(ShiftKernelDiffTest, BothTilesMatchAcrossThreadCounts) {
  TierGuard guard;
  const quant::Pow2Config config;
  support::Rng rng(112);
  const auto qimg = quantize_image(Tensor::randn(Shape{128, 8, 8}, rng), 8);
  for (const Prune prune : {Prune::kNone, Prune::kOdd}) {
    Tensor wq = quant::quantize_lightnn(
        Tensor::randn(Shape{128, 128, 3, 3}, rng, 0.0F, 0.3F), 2, config);
    prune_filters(wq, prune);
    const ShiftConv2d engine(wq, 2, config, 1, 1);
    runtime::set_num_threads(1);
    set_kernel_tier_override(0);
    const Tensor reference = engine.run(qimg);
    for (const int threads : {1, 2, 4, 7}) {
      runtime::set_num_threads(threads);
      for (const KernelTier tier : host_tiers()) {
        set_kernel_tier_override(static_cast<int>(tier));
        for (const ConvTile tile : kTiles) {
          EXPECT_TRUE(bytes_equal(engine.run(qimg, tile), reference))
              << "threads=" << threads << " tier=" << kernel_tier_name(tier)
              << " tile=" << conv_tile_name(tile)
              << " prune=" << static_cast<int>(prune);
        }
      }
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
