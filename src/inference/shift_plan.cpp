#include "inference/shift_plan.hpp"

#include <algorithm>
#include <limits>

#include "support/annotations.hpp"
#include "support/check.hpp"

namespace flightnn::inference {

namespace {

// Plan entries check_plan accepts at most.
constexpr std::int64_t kMaxPlanEntries = std::int64_t{1} << 31;

}  // namespace

void check_plan(const ShiftPlan& plan, std::int64_t filters,
                std::int64_t in_channels, std::int64_t kernel,
                const quant::Pow2Config& config) {
  // In int64: e_max - e_min of two hostile ints overflows int.
  const std::int64_t window = std::int64_t{config.e_max} - config.e_min;
  FLIGHTNN_CHECK(config.e_min >= -126 && config.e_max <= 127 && window >= 0 &&
                     window <= kMaxShift,
                 "ShiftPlan: exponent window [", config.e_min, ", ",
                 config.e_max, "] outside [-126, 127] or wider than ",
                 kMaxShift, " shifts");
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
  for (std::size_t e = 0; e < entries; ++e) {
    const std::int64_t sign = plan.sign[e], shift = plan.shift[e],
                       channel = plan.channel[e], ky = plan.ky[e],
                       kx = plan.kx[e];
    FLIGHTNN_CHECK((sign == 1 || sign == -1) && shift >= 0 &&
                       shift <= window && channel >= 0 &&
                       channel < in_channels && ky >= 0 && ky < kernel &&
                       kx >= 0 && kx < kernel,
                   "ShiftPlan: entry ", e, " (sign ", sign, ", shift ", shift,
                   ", tap ", channel, "/", ky, "/", kx,
                   ") outside the window [0, ", window, "] or the [",
                   in_channels, ", ", kernel, ", ", kernel, "] filter");
  }
}

// One pass over the entries: each filter's weights are summed into a
// scratch row in int64, checked, and packed. The word count is checked
// first, so a refused pack allocates O(entries + filters) whatever the
// geometry claims.
FLIGHTNN_COLD_ALLOC DensePack pack_dense(const ShiftPlan& plan,
                                         std::int64_t in_channels,
                                         std::int64_t kernel) {
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
      const std::int64_t c = plan.channel[ei];
      std::int64_t& weight =
          w[static_cast<std::size_t>(
              ((c / 4) * kk + plan.ky[ei] * kernel + plan.kx[ei]) * 4 + c % 4)];
      weight += plan.sign[ei] * (std::int64_t{1} << plan.shift[ei]);
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

// Group terms by filter, stream out only nonzero elements.
FLIGHTNN_API_ENTRY ShiftPlan ShiftPlan::compile_conv(
    const core::Decomposition& decomposition, const quant::Pow2Config& config,
    std::int64_t in_channels, std::int64_t kernel) {
  FLIGHTNN_CHECK(in_channels > 0 && kernel > 0,
                 "ShiftPlan::compile_conv: bad conv geometry ", in_channels,
                 "x", kernel);
  const auto filters = static_cast<std::int64_t>(decomposition.filter_k.size());

  ShiftPlan plan;
  plan.filters = filters;

  // Terms grouped by filter in decomposition order (compile-time only; the
  // runtime structure is the flat entry stream).
  std::vector<std::vector<std::size_t>> terms_by_filter(
      static_cast<std::size_t>(filters));
  for (std::size_t t = 0; t < decomposition.terms.size(); ++t) {
    const std::int64_t filter = decomposition.terms[t].filter;
    // A term addressing a filter outside the decomposition's own range would
    // write straight past terms_by_filter; fuzzed decompositions reach this
    // path, so the bound is a hard check, not a DCHECK.
    FLIGHTNN_CHECK(filter >= 0 && filter < filters, "ShiftPlan: term ", t,
                   " addresses filter ", filter, " outside [0, ", filters,
                   ")");
    terms_by_filter[static_cast<std::size_t>(filter)].push_back(t);
  }

  plan.filter_begin.reserve(static_cast<std::size_t>(filters) + 1);
  plan.filter_begin.push_back(0);
  const std::int64_t kk = kernel * kernel;
  for (std::int64_t f = 0; f < filters; ++f) {
    for (const std::size_t t : terms_by_filter[static_cast<std::size_t>(f)]) {
      const auto& term = decomposition.terms[t];
      for (std::size_t e = 0; e < term.elements.size(); ++e) {
        const quant::Pow2Term w = term.elements[e];
        if (w.sign == 0) continue;  // elided: zero elements never reach run()
        FLIGHTNN_CHECK(w.sign == 1 || w.sign == -1, "ShiftPlan: term sign ",
                       static_cast<int>(w.sign), " must be -1, 0 or +1");
        const int shift = static_cast<int>(w.exponent) - config.e_min;
        FLIGHTNN_CHECK(shift >= 0 && shift <= kMaxShift,
                       "ShiftPlan: shift ", shift,
                       " outside the barrel shifter's range");
        const auto ei = static_cast<std::int64_t>(e);
        FLIGHTNN_CHECK(ei / kk <= std::numeric_limits<std::int32_t>::max(),
                       "ShiftPlan: channel of element ", e, " overflows int32");
        plan.channel.push_back(static_cast<std::int32_t>(ei / kk));
        plan.ky.push_back(static_cast<std::int16_t>((ei % kk) / kernel));
        plan.kx.push_back(static_cast<std::int16_t>(ei % kernel));
        plan.shift.push_back(static_cast<std::int8_t>(shift));
        plan.sign.push_back(w.sign);
      }
    }
    plan.filter_begin.push_back(plan.entries());
  }
  return plan;
}

}  // namespace flightnn::inference
