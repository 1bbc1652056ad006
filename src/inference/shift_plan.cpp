#include "inference/shift_plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "support/annotations.hpp"
#include "support/check.hpp"

namespace flightnn::inference {

namespace {

// Plan entries check_plan accepts at most.
constexpr std::int64_t kMaxPlanEntries = std::int64_t{1} << 31;

// The window check compile_conv makes before it lowers and check_plan
// before a plan is adopted: the quantizers' window, at most kMaxShift
// shifts wide (its ends are bounded first, so the span cannot overflow).
void check_window(const quant::Pow2Config& config, const char* who) {
  quant::check_exponent_window(config, who);
  FLIGHTNN_CHECK(config.e_max - config.e_min <= kMaxShift, who,
                 ": exponent window [", config.e_min, ", ", config.e_max,
                 "] is wider than ", kMaxShift, " shifts");
}

}  // namespace

void check_plan(const ShiftPlan& plan, std::int64_t filters,
                const quant::Pow2Config& config) {
  check_window(config, "ShiftPlan");
  const std::int64_t n = plan.entries();
  FLIGHTNN_CHECK(filters >= 0 && plan.filters == filters,
                 "ShiftPlan: plan covers ", plan.filters, " filters, the layer ",
                 filters);
  FLIGHTNN_CHECK(n <= kMaxPlanEntries, "ShiftPlan: ", n,
                 " entries exceed the 2^31 cap");
  const auto entries = static_cast<std::size_t>(n);
  FLIGHTNN_CHECK(plan.sign.size() == entries && plan.channel.size() == entries &&
                     plan.ky.size() == entries && plan.kx.size() == entries,
                 "ShiftPlan: streams do not match the entry count ", n);
  const PlanArray<std::int64_t>& begin = plan.filter_begin;
  FLIGHTNN_CHECK(static_cast<std::int64_t>(begin.size()) == filters + 1 &&
                     begin.front() == 0 && begin.back() == n,
                 "ShiftPlan: filter_begin does not span the ", n,
                 " entries over ", filters, " filters");
  for (std::size_t f = 1; f < begin.size(); ++f) {
    FLIGHTNN_CHECK(begin[f - 1] <= begin[f],
                   "ShiftPlan: filter_begin decreases at ", f);
  }
}

// One pass over the entries: each entry is checked, then counted at its tap
// and summed into its filter's scratch row in int64, and each filter's row
// is checked and packed. The word count is checked first, so a refused pack
// allocates O(entries + filters) whatever the geometry claims.
FLIGHTNN_COLD_ALLOC DensePack pack_dense(const ShiftPlan& plan,
                                         std::int64_t in_channels,
                                         std::int64_t kernel,
                                         const quant::Pow2Config& config) {
  const std::int64_t window = std::int64_t{config.e_max} - config.e_min;
  std::int64_t live = 0;
  for (std::int64_t f = 0; f < plan.filters; ++f) {
    const auto fi = static_cast<std::size_t>(f);
    live += plan.filter_begin[fi + 1] > plan.filter_begin[fi] ? 1 : 0;
  }
  const std::int64_t groups = in_channels / 4 + (in_channels % 4 != 0 ? 1 : 0);
  std::int64_t kk = 0;
  std::int64_t taps = 0;
  std::int64_t words = 0;
  FLIGHTNN_CHECK(!__builtin_mul_overflow(kernel, kernel, &kk) &&
                     !__builtin_mul_overflow(groups, kk, &taps) &&
                     !__builtin_mul_overflow(live, taps, &words) &&
                     words <= kMaxDenseWordsPerEntry * plan.entries(),
                 "ShiftPlan: the int8 pack of ", live, " live [", in_channels,
                 ", ", kernel, ", ", kernel, "] filters passes ",
                 kMaxDenseWordsPerEntry, " words per plan entry (",
                 plan.entries(), " entries)");
  DensePack pack;
  pack.taps = taps;
  if (live == 0) return pack;  // every filter pruned: run() writes biases
  const auto live_n = static_cast<std::size_t>(live);
  pack.filters.reserve(live_n);
  pack.correction.reserve(live_n);
  pack.negated.reserve(live_n);
  pack.words.reserve(static_cast<std::size_t>(words));
  pack.tap_entries.assign(static_cast<std::size_t>(kk), 0);
  // Byte (word t, lane i) of a filter: channel 4g + i at tap t = g*kk + ky*k
  // + kx. Each term is at most 2^kMaxShift and |w| stays below it while
  // summing, so no add can overflow.
  constexpr std::int64_t kSumLimit = std::int64_t{1} << kMaxShift;
  // The kernels' int32 sums are exact while 127 * sum |w| fits (DESIGN.md
  // §9): |q| <= 127 for every code run() accepts.
  constexpr std::int64_t kMaxAbsSum =
      std::numeric_limits<std::int32_t>::max() / 127;
  std::vector<std::int64_t> w(static_cast<std::size_t>(taps * 4));
  for (std::int64_t f = 0; f < plan.filters; ++f) {
    const std::int64_t lo = plan.filter_begin[static_cast<std::size_t>(f)];
    const std::int64_t hi = plan.filter_begin[static_cast<std::size_t>(f) + 1];
    if (lo == hi) continue;  // pruned: run() writes only the bias
    std::fill(w.begin(), w.end(), std::int64_t{0});
    for (std::int64_t e = lo; e < hi; ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const std::int64_t sign = plan.sign[ei], shift = plan.shift[ei],
                         c = plan.channel[ei], ky = plan.ky[ei],
                         kx = plan.kx[ei];
      FLIGHTNN_CHECK((sign == 1 || sign == -1) && shift >= 0 &&
                         shift <= window && c >= 0 && c < in_channels &&
                         ky >= 0 && ky < kernel && kx >= 0 && kx < kernel,
                     "ShiftPlan: entry ", e, " (sign ", sign, ", shift ", shift,
                     ", tap ", c, "/", ky, "/", kx,
                     ") outside the window [0, ", window, "] or the [",
                     in_channels, ", ", kernel, ", ", kernel, "] filter");
      ++pack.tap_entries[static_cast<std::size_t>(ky * kernel + kx)];
      std::int64_t& weight = w[static_cast<std::size_t>(
          ((c >> 2) * kk + ky * kernel + kx) * 4 + (c & 3))];
      weight += sign * (std::int64_t{1} << shift);
      FLIGHTNN_CHECK(weight <= kSumLimit && weight >= -kSumLimit,
                     "ShiftPlan: filter ", f, " sums a weight past 2^",
                     kMaxShift, ", which int8 cannot hold");
    }
    // int8 holds [-128, 127]. A filter that reaches +128 but not -128 (a
    // LightNN-2 weight of 2^0 + 2^0 at the default exponent range) packs
    // negated; run() flips the sign of its scale.
    const auto [lo_w, hi_w] = std::minmax_element(w.begin(), w.end());
    const bool negate = *hi_w > 127;
    FLIGHTNN_CHECK(
        *lo_w >= (negate ? -127 : -128) && *hi_w <= (negate ? 128 : 127),
        "ShiftPlan: filter ", f, " holds weights in [", *lo_w, ", ", *hi_w,
        "] units of 2^e_min, which int8 holds neither as they are nor "
        "negated");
    std::int64_t sum = 0;
    std::int64_t abs_sum = 0;
    for (std::int64_t& weight : w) {
      if (negate) weight = -weight;
      sum += weight;
      abs_sum += weight < 0 ? -weight : weight;
    }
    FLIGHTNN_CHECK(abs_sum <= kMaxAbsSum, "ShiftPlan: filter ", f,
                   "'s sum of |w| is ", abs_sum, ", and 127 times it passes "
                   "the kernels' int32 bound (at most ", kMaxAbsSum, ")");
    pack.filters.push_back(static_cast<std::int32_t>(f));
    pack.negated.push_back(negate ? 1 : 0);
    // The kernels subtract it in wrapping 32-bit arithmetic, so its residue
    // mod 2^32 is all they need.
    pack.correction.push_back(
        static_cast<std::int32_t>(static_cast<std::uint32_t>(sum * 128)));
    for (std::int64_t t = 0; t < taps; ++t) {
      std::uint32_t word = 0;
      for (std::int64_t i = 0; i < 4; ++i) {
        const auto byte = static_cast<std::uint8_t>(
            static_cast<std::int8_t>(w[static_cast<std::size_t>(t * 4 + i)]));
        word |= static_cast<std::uint32_t>(byte) << (8 * i);
      }
      pack.words.push_back(static_cast<std::int32_t>(word));
    }
  }
  return pack;
}

namespace {

// One term of a weight's greedy peel: its shift (exponent - e_min) and sign.
struct PeelTerm {
  std::int8_t shift = 0;
  std::int8_t sign = 0;
};

// The greedy peel of every weight the int8 pack can hold, u * 2^e_min with
// integer |u| <= 128: the Fig. 3 decomposition's peel (core/decompose.cpp:
// quant::peel_level, level by level until every residual is zero), run once
// per op over the 257 values instead of over every weight. On these values
// every residual is a whole number of units below 129, so the float peel is
// exact and a row's terms are the terms the decomposition gives each weight
// of that value.
class PeelTable {
 public:
  static constexpr int kMaxUnits = 128;
  static constexpr int kRows = 2 * kMaxUnits + 1;
  static constexpr int kOffGrid = kRows;  // units() of any other weight
  static constexpr std::uint8_t kTooLong = 0xFF;  // needs more than k_max

  PeelTable(int k_max, const quant::Pow2Config& config)
      : inv_unit_(std::ldexp(1.0F, -config.e_min)),
        // Each term takes at least one unit off |residual|, so no row needs
        // more than 128.
        levels_(std::min(k_max, kMaxUnits)),
        terms_(static_cast<std::size_t>(levels_) * kRows) {
    const float unit = std::ldexp(1.0F, config.e_min);
    // Past FLT_MAX when e_min > 120: no finite weight has that value, and
    // its residual stays +-inf, so its row is kTooLong.
    std::array<float, kRows> residual;
    for (int row = 0; row < kRows; ++row) {
      value_[row] = static_cast<float>(row - kMaxUnits) * unit;
      residual[row] = value_[row];
    }
    std::array<float, kRows> term;
    for (int level = 0; level < levels_; ++level) {
      // A row has a term at this level while its residual is not zero; the
      // +0 terms of the other rows are stored but never read.
      for (int row = 0; row < kRows; ++row) {
        if (residual[row] != 0.0F) {
          length_[row] = static_cast<std::uint8_t>(level + 1);
        }
      }
      term.fill(0.0F);
      quant::peel_level(residual.data(), term.data(), kRows, config);
      for (int row = 0; row < kRows; ++row) {
        const quant::Pow2Term t = quant::pow2_term_of(term[row]);
        terms_[static_cast<std::size_t>(level) * kRows + row] = {
            static_cast<std::int8_t>(t.exponent - config.e_min), t.sign};
      }
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
  // Terms of u's peel, or kTooLong.
  [[nodiscard]] int length(int u) const { return length_[u + kMaxUnits]; }
  // Term `level` (< length(u)) of each u's peel, indexed by u.
  [[nodiscard]] const PeelTerm* level(int level) const {
    return terms_.data() + static_cast<std::size_t>(level) * kRows + kMaxUnits;
  }
  // length() indexed by u.
  [[nodiscard]] const std::uint8_t* lengths() const {
    return length_.data() + kMaxUnits;
  }

 private:
  float inv_unit_;
  int levels_;
  std::vector<PeelTerm> terms_;  // [level][u + 128]
  std::array<float, kRows> value_{};
  std::array<std::uint8_t, kRows> length_{};
};

}  // namespace

// Two passes over the weights: the first maps each to its peel row, checks
// it and sizes every stream; the second writes the entries in place, level
// by level per filter.
FLIGHTNN_API_ENTRY CompiledPlan ShiftPlan::compile_conv(
    const tensor::Tensor& quantized_weights, int k_max,
    const quant::Pow2Config& config) {
  check_window(config, "ShiftPlan::compile_conv");
  FLIGHTNN_CHECK(k_max >= 1, "ShiftPlan::compile_conv: k_max must be >= 1, got ",
                 k_max);
  const tensor::Shape& s = quantized_weights.shape();
  const bool conv = s.rank() == 4;
  FLIGHTNN_CHECK((conv && s[2] == s[3]) || s.rank() == 2,
                 "ShiftPlan::compile_conv: OIHW weights with a square kernel "
                 "or [out, in] weights required, got ",
                 s.to_string());
  const std::int64_t filters = s[0], in_channels = s[1];
  const std::int64_t kernel = conv ? s[2] : 1;
  FLIGHTNN_CHECK(filters > 0 && in_channels > 0 && kernel > 0 &&
                     in_channels - 1 <= std::numeric_limits<std::int32_t>::max() &&
                     kernel - 1 <= std::numeric_limits<std::int16_t>::max(),
                 "ShiftPlan::compile_conv: bad geometry ", s.to_string());
  const PeelTable table(k_max, config);
  const std::int64_t row = in_channels * kernel * kernel;
  const float* weights = quantized_weights.data();

  CompiledPlan compiled;
  ShiftPlan& plan = compiled.plan;
  plan.filters = filters;
  plan.filter_begin.resize(static_cast<std::size_t>(filters) + 1);
  std::int64_t* begin = plan.filter_begin.mutable_data();
  std::vector<std::int16_t> units(static_cast<std::size_t>(filters * row));
  std::vector<std::uint8_t> filter_k(static_cast<std::size_t>(filters));
  for (std::int64_t f = 0; f < filters; ++f) {
    int k = 0;
    std::int64_t entries = 0;
    for (std::int64_t e = 0; e < row; ++e) {
      const float w = weights[f * row + e];
      const int u = table.units(w);
      FLIGHTNN_CHECK(u != PeelTable::kOffGrid, "ShiftPlan::compile_conv: "
                     "filter ", f, " element ", e, " (", w,
                     ") is not a whole number of 2^", config.e_min,
                     " units within ", PeelTable::kMaxUnits);
      const int length = table.length(u);
      FLIGHTNN_CHECK(length != PeelTable::kTooLong && length <= k_max,
                     "ShiftPlan::compile_conv: filter ", f,
                     " element ", e, " (", w, ") is not a sum of <= ", k_max,
                     " powers of two");
      units[static_cast<std::size_t>(f * row + e)] =
          static_cast<std::int16_t>(u);
      entries += length;
      k = std::max(k, length);
    }
    filter_k[static_cast<std::size_t>(f)] = static_cast<std::uint8_t>(k);
    compiled.term_count += k;
    begin[f + 1] = begin[f] + entries;
  }

  // One slack entry: the second pass writes every element's term and
  // advances only past the live ones, so the last skipped element of the
  // layer writes one past the end.
  const auto n = static_cast<std::size_t>(begin[filters]);
  plan.channel.resize(n + 1);
  plan.ky.resize(n + 1);
  plan.kx.resize(n + 1);
  plan.shift.resize(n + 1);
  plan.sign.resize(n + 1);
  std::int32_t* channel = plan.channel.mutable_data();
  std::int16_t* ky_of = plan.ky.mutable_data();
  std::int16_t* kx_of = plan.kx.mutable_data();
  std::int8_t* shift = plan.shift.mutable_data();
  std::int8_t* sign = plan.sign.mutable_data();
  const std::uint8_t* lengths = table.lengths();
  for (std::int64_t f = 0; f < filters; ++f) {
    const std::int16_t* filter_units = units.data() + f * row;
    std::int64_t at = begin[f];
    for (int level = 0; level < filter_k[static_cast<std::size_t>(f)];
         ++level) {
      const PeelTerm* terms = table.level(level);
      const std::int16_t* u = filter_units;
      for (std::int64_t c = 0; c < in_channels; ++c) {
        for (std::int64_t ky = 0; ky < kernel; ++ky) {
          for (std::int64_t kx = 0; kx < kernel; ++kx, ++u) {
            // Written unconditionally; an element already peeled to zero
            // at this level does not advance, so the next entry
            // overwrites it.
            channel[at] = static_cast<std::int32_t>(c);
            ky_of[at] = static_cast<std::int16_t>(ky);
            kx_of[at] = static_cast<std::int16_t>(kx);
            shift[at] = terms[*u].shift;
            sign[at] = terms[*u].sign;
            at += lengths[*u] > level ? 1 : 0;
          }
        }
      }
    }
  }
  plan.channel.resize(n);
  plan.ky.resize(n);
  plan.kx.resize(n);
  plan.shift.resize(n);
  plan.sign.resize(n);
  return compiled;
}

}  // namespace flightnn::inference
