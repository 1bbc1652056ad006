#include "inference/shift_plan.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "support/annotations.hpp"
#include "support/check.hpp"
#include "support/simd.hpp"

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

// Weight w in units of 2^e_min (unit = 2^e_min, inv_unit = 2^-e_min): u,
// the quotient w * inv_unit truncated (0 past 128 units), and whether w is
// exactly u units. It is when the truncation did not change the quotient
// and u units are w again (the product rounds for a subnormal quotient);
// so never for NaN, +-inf, a fraction of a unit or a weight past 128
// units. Nothing in it can trap conditionally, so the filter scan
// vectorizes: the range is checked on the quotient's bits (a NaN's lie
// above +inf's) and applied as a mask, since gcc turns a select into a
// conditional float-to-int conversion, which may trap, and then keeps the
// loop scalar; an equality compare does not trap on a quiet NaN.
struct GridUnits {
  int u;
  int on_grid;  // 1 or 0; a bool member kept the scan's copy in memory
};

inline GridUnits grid_units(float w, float inv_unit, float unit) {
  constexpr auto kMaxBits = std::bit_cast<std::uint32_t>(128.0F);
  const float t = w * inv_unit;
  const auto bits = std::bit_cast<std::uint32_t>(t);
  // All ones when |t| <= 128, else zero, which makes the quotient +0.
  const std::uint32_t keep =
      0U - static_cast<std::uint32_t>((bits & 0x7FFFFFFFU) <= kMaxBits);
  const int u = static_cast<int>(std::bit_cast<float>(bits & keep));
  const auto back = static_cast<float>(u);
  return {u, (back == t) & (back * unit == w)};
}

// What scan_filter found in one filter: whether a weight is off the grid,
// and the least and greatest units.
struct FilterScan {
  int off_grid;
  int lo;
  int hi;
};

// Writes each of n weights' units and folds their grid checks into one
// flag, in one pass with no branch: it vectorizes in every
// FLIGHTNN_SIMD_CLONES clone.
FLIGHTNN_SIMD_CLONES
FilterScan scan_filter(const float* weights, std::int64_t n, float inv_unit,
                       float unit, std::int16_t* units) {
  int off_grid = 0;
  int lo = 0;
  int hi = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const GridUnits g = grid_units(weights[i], inv_unit, unit);
    off_grid |= g.on_grid ^ 1;
    lo = std::min(lo, g.u);
    hi = std::max(hi, g.u);
    units[i] = static_cast<std::int16_t>(g.u);
  }
  return {off_grid, lo, hi};
}

// The greedy peel's length for every weight the int8 pack can hold, u *
// 2^e_min with integer |u| <= 128: the Fig. 3 decomposition's peel
// (core/decompose.cpp: quant::peel_level, level by level until every
// residual is zero), run once over the 257 values instead of over every
// weight. On these values every residual is a whole number of units below
// 129, so the float peel is exact and a value's length is the number of
// terms the decomposition gives each weight of that value. The table
// depends on k_max and the window alone, which a network's shift layers
// share, so each thread keeps its last one (peel_lengths).
class PeelLengths {
 public:
  static constexpr int kMaxUnits = 128;
  static constexpr int kRows = 2 * kMaxUnits + 1;
  static constexpr int kOffGrid = kRows;  // units() of any other weight
  static constexpr std::uint8_t kTooLong = 0xFF;  // needs more than k_max

  // Out of line: inlined, its table loops doubled the code of compile_conv
  // and adopt_plan.
  [[gnu::noinline]] PeelLengths(int k_max, const quant::Pow2Config& config)
      : k_max_(k_max),
        config_(config),
        unit_(std::ldexp(1.0F, config.e_min)),
        inv_unit_(std::ldexp(1.0F, -config.e_min)) {
    // Past FLT_MAX when e_min > 120: no finite weight has that value, and
    // its residual stays +-inf, so its length is kTooLong.
    std::array<float, kRows> residual;
    for (int row = 0; row < kRows; ++row) {
      residual[row] = static_cast<float>(row - kMaxUnits) * unit_;
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
    for (int u = -kMaxUnits; u <= kMaxUnits; ++u) {
      const std::uint32_t length = std::uint32_t{length_[u + kMaxUnits]} << 16;
      unit_entry_[0][u + kMaxUnits] = length | static_cast<std::uint8_t>(u);
      unit_entry_[1][u + kMaxUnits] = length | static_cast<std::uint8_t>(-u);
    }
    for (int bits = 0; bits < 256; ++bits) {
      const int b = static_cast<std::int8_t>(bits);
      const std::uint32_t fields =
          static_cast<std::uint32_t>(b + 128) << 10 |
          static_cast<std::uint32_t>(b < 0 ? -b : b);
      byte_entry_[0][bits] =
          std::uint32_t{length_[kMaxUnits + b]} << 20 | fields;
      byte_entry_[1][bits] =
          std::uint32_t{length_[kMaxUnits - b]} << 20 | fields;
    }
  }

  // Whether this is the table of k_max over config's window.
  [[nodiscard]] bool holds(int k_max, const quant::Pow2Config& config) const {
    return k_max == k_max_ && config.e_min == config_.e_min &&
           config.e_max == config_.e_max &&
           config.flush_to_zero == config_.flush_to_zero;
  }
  // 2^e_min and 2^-e_min.
  [[nodiscard]] float unit() const { return unit_; }
  [[nodiscard]] float inv_unit() const { return inv_unit_; }
  // u when `w` is exactly u * 2^e_min with |u| <= 128, else kOffGrid (NaN,
  // +-inf, a fraction of a unit, past 128 units).
  [[nodiscard]] int units(float w) const {
    const GridUnits g = grid_units(w, inv_unit_, unit_);
    return g.on_grid != 0 ? g.u : kOffGrid;
  }
  // Terms of each u's peel, or kTooLong, indexed by u in [-128, 128].
  [[nodiscard]] const std::uint8_t* lengths() const {
    return length_.data() + kMaxUnits;
  }
  // Per u in [-128, 128], indexed by u: the peel length of a weight of u
  // units << 16 | its int8 pack byte, u, or -u in a negated filter. Four
  // weights' sum holds their terms above bit 16, and their maximum holds
  // the longest peel above bit 16.
  [[nodiscard]] const std::uint32_t* unit_entries(bool negated) const {
    return unit_entry_[negated ? 1 : 0].data() + kMaxUnits;
  }
  // Per int8 pack byte b, indexed by its bits (b & 0xFF): the peel length
  // of its weight (b, or -b in a negated filter) << 20 | (b + 128) << 10 |
  // |b|. Four bytes' sum holds their terms above bit 20, 512 + their sum in
  // bits 10 to 19 and their |b| below bit 10, and their maximum holds the
  // longest peel above bit 20.
  [[nodiscard]] const std::uint32_t* bytes(bool negated) const {
    return byte_entry_[negated ? 1 : 0].data();
  }

 private:
  int k_max_;
  quant::Pow2Config config_;
  float unit_;
  float inv_unit_;
  std::array<std::uint8_t, kRows> length_{};
  std::array<std::array<std::uint32_t, kRows>, 2> unit_entry_{};
  std::array<std::array<std::uint32_t, 256>, 2> byte_entry_{};
};

// The peel table of k_max over config's window: the calling thread's last
// one, rebuilt only when the coding changes, so a compile or a load of a
// network whose shift layers share one coding builds it once. The
// reference holds until the thread's next call.
const PeelLengths& peel_lengths(int k_max, const quant::Pow2Config& config) {
  thread_local std::optional<PeelLengths> last;
  if (!last || !last->holds(k_max, config)) last.emplace(k_max, config);
  return *last;
}

// compile_conv's refusal of a filter the scans flagged: reads the filter
// again and throws for its first weight off the grid or past k_max terms,
// naming the filter and the element.
[[noreturn, gnu::cold, gnu::noinline]] void refuse_weight(
    const float* filter, std::int64_t f, std::int64_t row,
    const PeelLengths& peel, int k_max, const quant::Pow2Config& config) {
  const std::uint8_t* length = peel.lengths();
  for (std::int64_t e = 0; e < row; ++e) {
    const float w = filter[e];
    const int u = peel.units(w);
    FLIGHTNN_CHECK(u != PeelLengths::kOffGrid, "ShiftPlan::compile_conv: "
                   "filter ", f, " element ", e, " (", w,
                   ") is not a whole number of 2^", config.e_min,
                   " units within ", PeelLengths::kMaxUnits);
    const int n = length[u];
    FLIGHTNN_CHECK(n != PeelLengths::kTooLong, "ShiftPlan::compile_conv: "
                   "filter ", f, " element ", e, " (", w,
                   ") is not a sum of <= ", k_max, " powers of two");
  }
  FLIGHTNN_UNREACHABLE("ShiftPlan::compile_conv: filter ", f,
                       " was flagged, but it holds no weight to refuse");
}

}  // namespace

// One pass over the words, block by block: each block's words are copied
// aside, then each of its live filters' bytes are checked and summed, each
// byte's peel length is counted at its tap and maxed into the filter's k_i
// (one table load per byte gives its length, b + 128 and |b|), and each
// word is written back at its blocked place. The per-word checks
// accumulate and are tested once per filter, so the inner loop does not
// branch.
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
  std::int64_t* tap_entries = adopted.tap_entries.data();
  const PeelLengths& peel = peel_lengths(plan.k_max, config);
  // The lanes of the last channel group past in_channels.
  const std::uint32_t padding =
      in_channels % 4 == 0 ? 0U : ~0U << (8 * (in_channels % 4));
  // The kernels' int32 sums are exact while 128 * sum |w| fits (DESIGN.md
  // §9): |q| <= 128 for every int8 code run() can be handed.
  constexpr std::int64_t kMaxAbsSum =
      std::numeric_limits<std::int32_t>::max() / 128;
  // The blocked order (shift_kernels.hpp) holds every full block where its
  // filters' words were, so each block is re-laid in place; only the last
  // block's zero padding grows the words. Its size stays within 16 x the
  // words the plan brought.
  const auto block_words = static_cast<std::size_t>(kFilterBlock * taps);
  const std::size_t blocks = (live + kFilterBlock - 1) / kFilterBlock;
  plan.words.resize(blocks * block_words);
  std::vector<std::uint32_t> aside(std::min<std::size_t>(live, kFilterBlock) *
                                   static_cast<std::size_t>(taps));
  std::int64_t entries = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t first = b * kFilterBlock;
    const std::size_t filters =
        std::min<std::size_t>(kFilterBlock, live - first);
    auto* block = reinterpret_cast<std::uint32_t*>(plan.words.data()) +
                  b * block_words;
    std::memcpy(aside.data(), block,
                filters * static_cast<std::size_t>(taps) *
                    sizeof(std::uint32_t));
    if (filters < kFilterBlock) std::fill(block, block + block_words, 0U);
    const std::uint32_t* word = aside.data();
    for (std::size_t j = 0; j < filters; ++j) {
      const std::size_t i = first + j;
      const std::int32_t f = plan.live[i];
      FLIGHTNN_CHECK(plan.negated[i] <= 1, "ShiftPlan: filter ", f,
                     "'s negated byte is ", int{plan.negated[i]},
                     ", not 0 or 1");
      // The weight of byte b is -b in a negated filter.
      const std::uint32_t* byte = peel.bytes(plan.negated[i] != 0);
      std::int64_t biased_sum = 0;
      std::int64_t abs_sum = 0;
      std::uint32_t padded = 0;
      std::uint32_t longest = 0;
      std::uint32_t* out = block + j;
      for (std::int64_t g = 0; g < groups; ++g) {
        const std::uint32_t pad = g + 1 == groups ? padding : 0U;
        for (std::int64_t t = 0; t < kk; ++t, ++word, out += kFilterBlock) {
          const std::uint32_t w = *word;
          *out = w;
          padded |= w & pad;
          const std::uint32_t b0 = byte[w & 0xFFU];
          const std::uint32_t b1 = byte[w >> 8 & 0xFFU];
          const std::uint32_t b2 = byte[w >> 16 & 0xFFU];
          const std::uint32_t b3 = byte[w >> 24];
          const std::uint32_t lanes = b0 + b1 + b2 + b3;
          longest = std::max(longest,
                             std::max(std::max(b0, b1), std::max(b2, b3)));
          const std::uint32_t terms = lanes >> 20;
          biased_sum += lanes >> 10 & 0x3FFU;
          abs_sum += lanes & 0x3FFU;
          tap_entries[t] += terms;
          entries += terms;
        }
      }
      const auto k = static_cast<int>(longest >> 20);
      FLIGHTNN_CHECK(padded == 0, "ShiftPlan: filter ", f,
                     " holds a nonzero byte past in_channels ", in_channels);
      FLIGHTNN_CHECK(k != PeelLengths::kTooLong, "ShiftPlan: filter ", f,
                     " holds a weight that is not a sum of <= ", plan.k_max,
                     " powers of two in [2^", config.e_min, ", 2^",
                     config.e_max, "]");
      FLIGHTNN_CHECK(k > 0, "ShiftPlan: live filter ", f,
                     " has no nonzero weight");
      FLIGHTNN_CHECK(abs_sum <= kMaxAbsSum, "ShiftPlan: filter ", f,
                     "'s sum of |w| is ", abs_sum,
                     ", and 128 times it passes the kernels' int32 bound (at "
                     "most ", kMaxAbsSum, ")");
      // Each of the filter's 4 * taps bytes counted as b + 128. The kernels
      // subtract 128 * sum in wrapping 32-bit arithmetic, so its residue mod
      // 2^32 is all they need.
      const std::int64_t sum = biased_sum - 512 * taps;
      adopted.correction.push_back(
          static_cast<std::int32_t>(static_cast<std::uint32_t>(sum * 128)));
      adopted.term_count += k;
    }
  }
  FLIGHTNN_CHECK(entries == plan.entry_count, "ShiftPlan: stored entry count ",
                 plan.entry_count, ", its words hold ", entries);
  adopted.plan = std::move(plan);
  return adopted;
}

// Two passes over each filter. A branch-free scan (scan_filter) writes its
// weights' units and folds their grid checks into one flag. Then one pass
// over its words reads each weight's entry in the peel table, which gives
// both its peel length and its pack byte, and writes each word once. The
// longest peel, k_i, is checked once per filter; only a filter that fails
// a check is read again (refuse_weight), to name its first bad weight.
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
  const PeelLengths& peel = peel_lengths(k_max, config);
  const std::int64_t kk = kernel * kernel;
  const std::int64_t row = in_channels * kk;
  const std::int64_t groups = (in_channels + 3) / 4;
  const std::int64_t taps = groups * kk;
  const float* weights = quantized_weights.data();

  CompiledPlan compiled;
  ShiftPlan& plan = compiled.plan;
  plan.k_max = k_max;
  plan.words.reserve(static_cast<std::size_t>(filters * taps));
  // One filter's units, [channel][ky][kx], and zeros for the lanes past
  // in_channels in its last channel group.
  std::vector<std::int16_t> units(static_cast<std::size_t>(4 * taps));
  for (std::int64_t f = 0; f < filters; ++f) {
    const float* filter = weights + f * row;
    const FilterScan scan = scan_filter(filter, row, peel.inv_unit(),
                                        peel.unit(), units.data());
    if (scan.off_grid != 0) refuse_weight(filter, f, row, peel, k_max, config);
    const int lo = scan.lo;
    const int hi = scan.hi;
    if (lo == 0 && hi == 0) continue;  // pruned: k_i = 0, no words
    // int8 holds [-128, 127]. A filter that reaches +128 but not -128 (a
    // LightNN-2 weight of 2^0 + 2^0 at the default exponent range) packs
    // negated; run() flips the sign of its scale.
    const int sign = hi > 127 ? -1 : 1;
    const std::uint32_t* entry = peel.unit_entries(sign < 0);
    const std::size_t at = plan.words.size();
    plan.words.resize(at + static_cast<std::size_t>(taps));
    auto* out = reinterpret_cast<std::uint32_t*>(plan.words.data() + at);
    std::uint32_t longest = 0;
    std::int64_t entries = 0;
    for (std::int64_t g = 0; g < groups; ++g) {
      const std::int16_t* u = units.data() + 4 * g * kk;
      for (std::int64_t t = 0; t < kk; ++t, ++out) {
        const std::uint32_t e0 = entry[u[t]];
        const std::uint32_t e1 = entry[u[kk + t]];
        const std::uint32_t e2 = entry[u[2 * kk + t]];
        const std::uint32_t e3 = entry[u[3 * kk + t]];
        *out = (e0 & 0xFFU) | (e1 & 0xFFU) << 8 | (e2 & 0xFFU) << 16 |
               e3 << 24;
        entries += (e0 + e1 + e2 + e3) >> 16;
        longest =
            std::max(longest, std::max(std::max(e0, e1), std::max(e2, e3)));
      }
    }
    const auto k = static_cast<int>(longest >> 16);
    if (k == PeelLengths::kTooLong) {
      refuse_weight(filter, f, row, peel, k_max, config);
    }
    FLIGHTNN_CHECK(lo > -128 || hi < 128, "ShiftPlan::compile_conv: filter ",
                   f, " holds weights of -128 and +128 units of 2^e_min, "
                   "which int8 holds neither as they are nor negated");
    compiled.term_count += k;
    plan.entry_count += entries;
    plan.live.push_back(static_cast<std::int32_t>(f));
    plan.negated.push_back(static_cast<std::uint8_t>(sign < 0 ? 1 : 0));
  }
  return compiled;
}

}  // namespace flightnn::inference
