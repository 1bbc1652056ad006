#include "inference/shift_plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "support/annotations.hpp"
#include "support/check.hpp"

namespace flightnn::inference {

namespace {

// The coding check compile_conv makes before it lowers and adopt_plan
// before it reads a plan: the quantizers' window, at most kMaxShift shifts
// wide (its ends are bounded first, so the span cannot overflow), and a
// k_max of at least 1 whose terms sum to a finite float, as the quantizers
// require.
void check_coding(int k_max, const quant::Pow2Config& config,
                  const char* who) {
  quant::check_exponent_window(config, who);
  FLIGHTNN_CHECK(config.e_max - config.e_min <= kMaxShift, who,
                 ": exponent window [", config.e_min, ", ", config.e_max,
                 "] is wider than ", kMaxShift, " shifts");
  FLIGHTNN_CHECK(k_max >= 1, who, ": k_max must be >= 1, got ", k_max);
  quant::check_term_sum(k_max, config, who);
}

// The greedy peel's length for every weight the int8 pack can hold, u *
// 2^e_min with integer |u| <= 128: the Fig. 3 decomposition's peel
// (core/decompose.cpp: quant::peel_level, level by level until every
// residual is zero), run once over the 257 values instead of over every
// weight. On these values every residual is a whole number of units below
// 129, so the float peel is exact and a value's length is the number of
// terms the decomposition gives each weight of that value.
class PeelLengths {
 public:
  static constexpr int kMaxUnits = 128;
  static constexpr int kRows = 2 * kMaxUnits + 1;
  static constexpr int kOffGrid = kRows;  // units() of any other weight
  static constexpr std::uint8_t kTooLong = 0xFF;  // needs more than k_max

  PeelLengths(int k_max, const quant::Pow2Config& config)
      : inv_unit_(std::ldexp(1.0F, -config.e_min)) {
    const float unit = std::ldexp(1.0F, config.e_min);
    // Past FLT_MAX when e_min > 120: no finite weight has that value, and
    // its residual stays +-inf, so its length is kTooLong.
    std::array<float, kRows> residual;
    for (int row = 0; row < kRows; ++row) {
      value_[row] = static_cast<float>(row - kMaxUnits) * unit;
      residual[row] = value_[row];
    }
    std::array<float, kRows> peeled{};
    // Each term takes at least one unit off |residual|, so no value needs
    // more than 128.
    const int levels = std::min(k_max, kMaxUnits);
    for (int level = 0; level < levels; ++level) {
      for (int row = 0; row < kRows; ++row) {
        if (residual[row] != 0.0F) {
          length_[row] = static_cast<std::uint8_t>(level + 1);
        }
      }
      quant::peel_level(residual.data(), peeled.data(), kRows, config);
    }
    for (int row = 0; row < kRows; ++row) {
      if (residual[row] != 0.0F) length_[row] = kTooLong;
    }
  }

  // u when `w` is exactly u * 2^e_min with |u| <= 128, else kOffGrid (NaN,
  // +-inf, a fraction of a unit, past 128 units).
  [[nodiscard]] int units(float w) const {
    const float t = w * inv_unit_;
    if (!(t >= -kMaxUnits && t <= kMaxUnits)) return kOffGrid;
    const int u = static_cast<int>(t);
    // The value check catches a product that rounded (a subnormal t).
    return static_cast<float>(u) == t && value_[u + kMaxUnits] == w ? u
                                                                    : kOffGrid;
  }
  // Terms of each u's peel, or kTooLong, indexed by u in [-128, 128].
  [[nodiscard]] const std::uint8_t* lengths() const {
    return length_.data() + kMaxUnits;
  }

 private:
  float inv_unit_;
  std::array<float, kRows> value_{};
  std::array<std::uint8_t, kRows> length_{};
};

}  // namespace

// One pass over the words: each live filter's bytes are checked and summed,
// and each byte's peel length is counted at its tap and maxed into the
// filter's k_i. The per-word checks accumulate and are tested once per
// filter, so the inner loop does not branch.
FLIGHTNN_COLD_ALLOC AdoptedPlan adopt_plan(ShiftPlan plan,
                                           std::int64_t out_channels,
                                           std::int64_t in_channels,
                                           std::int64_t kernel,
                                           const quant::Pow2Config& config) {
  check_coding(plan.k_max, config, "ShiftPlan");
  const std::int64_t groups = in_channels / 4 + (in_channels % 4 != 0 ? 1 : 0);
  std::int64_t kk = 0;
  std::int64_t taps = 0;
  FLIGHTNN_CHECK(out_channels > 0 && in_channels > 0 && kernel > 0 &&
                     !__builtin_mul_overflow(kernel, kernel, &kk) &&
                     !__builtin_mul_overflow(groups, kk, &taps),
                 "ShiftPlan: bad geometry [", out_channels, ", ", in_channels,
                 ", ", kernel, ", ", kernel, "]");
  const std::size_t live = plan.live.size();
  for (std::size_t i = 0; i < live; ++i) {
    const std::int64_t f = plan.live[i];
    FLIGHTNN_CHECK(
        f >= 0 && f < out_channels && (i == 0 || plan.live[i - 1] < f),
        "ShiftPlan: live filter ", f, " at ", i,
        " is not strictly ascending inside [0, ", out_channels, ")");
  }
  FLIGHTNN_CHECK(plan.negated.size() == live, "ShiftPlan: ",
                 plan.negated.size(), " negated bytes for ", live,
                 " live filters");
  std::int64_t words = 0;
  FLIGHTNN_CHECK(
      !__builtin_mul_overflow(static_cast<std::int64_t>(live), taps, &words) &&
          plan.words.size() == static_cast<std::size_t>(words),
      "ShiftPlan: ", plan.words.size(), " words for ", live,
      " live filters of ", taps, " taps");

  AdoptedPlan adopted;
  adopted.taps = taps;
  if (live == 0) {  // every filter pruned: run() writes biases
    FLIGHTNN_CHECK(plan.entry_count == 0, "ShiftPlan: stored entry count ",
                   plan.entry_count, ", its words hold 0");
    adopted.plan = std::move(plan);
    return adopted;
  }
  adopted.correction.reserve(live);
  adopted.tap_entries.assign(static_cast<std::size_t>(kk), 0);
  const PeelLengths peel(plan.k_max, config);
  const std::uint8_t* length = peel.lengths();
  // The lanes of the last channel group past in_channels.
  const std::uint32_t padding =
      in_channels % 4 == 0 ? 0U : ~0U << (8 * (in_channels % 4));
  // The kernels' int32 sums are exact while 127 * sum |w| fits (DESIGN.md
  // §9): |q| <= 127 for every code run() accepts.
  constexpr std::int64_t kMaxAbsSum =
      std::numeric_limits<std::int32_t>::max() / 127;
  std::int64_t entries = 0;
  const auto* word = reinterpret_cast<const std::uint32_t*>(plan.words.data());
  for (std::size_t i = 0; i < live; ++i) {
    const std::int32_t f = plan.live[i];
    FLIGHTNN_CHECK(plan.negated[i] <= 1, "ShiftPlan: filter ", f,
                   "'s negated byte is ", int{plan.negated[i]}, ", not 0 or 1");
    // The weight of byte b is -b in a negated filter.
    const int sign = plan.negated[i] != 0 ? -1 : 1;
    std::int64_t sum = 0;
    std::int64_t abs_sum = 0;
    std::uint32_t padded = 0;
    int k = 0;
    for (std::int64_t g = 0; g < groups; ++g) {
      const std::uint32_t pad = g + 1 == groups ? padding : 0U;
      for (std::int64_t t = 0; t < kk; ++t, ++word) {
        const std::uint32_t w = *word;
        padded |= w & pad;
        int terms = 0;
        for (int lane = 0; lane < 4; ++lane) {
          const int b = static_cast<std::int8_t>(w >> (8 * lane));
          const int n = length[sign * b];
          terms += n;
          k = std::max(k, n);
          sum += b;
          abs_sum += b < 0 ? -b : b;
        }
        adopted.tap_entries[static_cast<std::size_t>(t)] += terms;
        entries += terms;
      }
    }
    FLIGHTNN_CHECK(padded == 0, "ShiftPlan: filter ", f,
                   " holds a nonzero byte past in_channels ", in_channels);
    FLIGHTNN_CHECK(k != PeelLengths::kTooLong, "ShiftPlan: filter ", f,
                   " holds a weight that is not a sum of <= ", plan.k_max,
                   " powers of two in [2^", config.e_min, ", 2^", config.e_max,
                   "]");
    FLIGHTNN_CHECK(k > 0, "ShiftPlan: live filter ", f,
                   " has no nonzero weight");
    FLIGHTNN_CHECK(abs_sum <= kMaxAbsSum, "ShiftPlan: filter ", f,
                   "'s sum of |w| is ", abs_sum,
                   ", and 127 times it passes the kernels' int32 bound (at "
                   "most ", kMaxAbsSum, ")");
    // The kernels subtract it in wrapping 32-bit arithmetic, so its residue
    // mod 2^32 is all they need.
    adopted.correction.push_back(
        static_cast<std::int32_t>(static_cast<std::uint32_t>(sum * 128)));
    adopted.term_count += k;
  }
  FLIGHTNN_CHECK(entries == plan.entry_count, "ShiftPlan: stored entry count ",
                 plan.entry_count, ", its words hold ", entries);
  adopted.plan = std::move(plan);
  return adopted;
}

// One pass over the weights, filter by filter: each weight is mapped to its
// value in units and checked against the peel table, then the filter's
// units are written as bytes into its words.
FLIGHTNN_API_ENTRY CompiledPlan ShiftPlan::compile_conv(
    const tensor::Tensor& quantized_weights, int k_max,
    const quant::Pow2Config& config) {
  check_coding(k_max, config, "ShiftPlan::compile_conv");
  const tensor::Shape& s = quantized_weights.shape();
  const bool conv = s.rank() == 4;
  FLIGHTNN_CHECK((conv && s[2] == s[3]) || s.rank() == 2,
                 "ShiftPlan::compile_conv: OIHW weights with a square kernel "
                 "or [out, in] weights required, got ",
                 s.to_string());
  const std::int64_t filters = s[0], in_channels = s[1];
  const std::int64_t kernel = conv ? s[2] : 1;
  FLIGHTNN_CHECK(filters > 0 && in_channels > 0 && kernel > 0 &&
                     filters - 1 <= std::numeric_limits<std::int32_t>::max(),
                 "ShiftPlan::compile_conv: bad geometry ", s.to_string());
  const PeelLengths peel(k_max, config);
  const std::uint8_t* length = peel.lengths();
  const std::int64_t kk = kernel * kernel;
  const std::int64_t row = in_channels * kk;
  const std::int64_t taps = (in_channels + 3) / 4 * kk;
  const float* weights = quantized_weights.data();

  CompiledPlan compiled;
  ShiftPlan& plan = compiled.plan;
  plan.k_max = k_max;
  plan.words.reserve(static_cast<std::size_t>(filters * taps));
  std::vector<std::int16_t> units(static_cast<std::size_t>(row));
  for (std::int64_t f = 0; f < filters; ++f) {
    int k = 0;
    int lo = 0;
    int hi = 0;
    std::int64_t entries = 0;
    for (std::int64_t e = 0; e < row; ++e) {
      const float w = weights[f * row + e];
      const int u = peel.units(w);
      FLIGHTNN_CHECK(u != PeelLengths::kOffGrid, "ShiftPlan::compile_conv: "
                     "filter ", f, " element ", e, " (", w,
                     ") is not a whole number of 2^", config.e_min,
                     " units within ", PeelLengths::kMaxUnits);
      const int n = length[u];
      FLIGHTNN_CHECK(n != PeelLengths::kTooLong, "ShiftPlan::compile_conv: "
                     "filter ", f, " element ", e, " (", w,
                     ") is not a sum of <= ", k_max, " powers of two");
      units[static_cast<std::size_t>(e)] = static_cast<std::int16_t>(u);
      entries += n;
      k = std::max(k, n);
      lo = std::min(lo, u);
      hi = std::max(hi, u);
    }
    compiled.term_count += k;
    plan.entry_count += entries;
    if (k == 0) continue;  // pruned: no words
    // int8 holds [-128, 127]. A filter that reaches +128 but not -128 (a
    // LightNN-2 weight of 2^0 + 2^0 at the default exponent range) packs
    // negated; run() flips the sign of its scale.
    FLIGHTNN_CHECK(lo > -128 || hi < 128, "ShiftPlan::compile_conv: filter ",
                   f, " holds weights of -128 and +128 units of 2^e_min, "
                   "which int8 holds neither as they are nor negated");
    const int sign = hi > 127 ? -1 : 1;
    plan.live.push_back(static_cast<std::int32_t>(f));
    plan.negated.push_back(static_cast<std::uint8_t>(sign < 0 ? 1 : 0));
    const std::size_t at = plan.words.size();
    plan.words.resize(at + static_cast<std::size_t>(taps));
    auto* out = reinterpret_cast<std::uint32_t*>(plan.words.data() + at);
    const std::int16_t* u = units.data();
    for (std::int64_t c = 0; c < in_channels; ++c) {
      std::uint32_t* group = out + (c >> 2) * kk;
      const int lane = static_cast<int>(c & 3) * 8;
      for (std::int64_t t = 0; t < kk; ++t, ++u) {
        group[t] |= static_cast<std::uint32_t>(
                        static_cast<std::uint8_t>(sign * *u))
                    << lane;
      }
    }
  }
  return compiled;
}

}  // namespace flightnn::inference
