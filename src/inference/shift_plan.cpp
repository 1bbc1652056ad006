#include "inference/shift_plan.hpp"

#include <algorithm>
#include <limits>

#include "support/annotations.hpp"
#include "support/check.hpp"

namespace flightnn::inference {

// Grow-once lowering of the derived stream; runs at adopt time (never on
// the inference hot path), hence the allocation boundary marker.
FLIGHTNN_COLD_ALLOC void ShiftPlan::derive_streams() {
  const std::size_t n = shift.size();
  // Read the core streams through const pointers: on an adopted plan they
  // are views, whose mutating operator[] must never be touched.
  const std::int8_t* shift_in = shift.data();
  const std::int64_t* begin_in = filter_begin.data();

  // Per-filter gain, saturated at the guard. A span outside the stream is
  // empty; a shift outside [0, 62) counts as the guard itself.
  const bool prefix_ok =
      filters >= 0 &&
      static_cast<std::int64_t>(filter_begin.size()) == filters + 1;
  filter_gain.assign(prefix_ok ? static_cast<std::size_t>(filters) : 0, 0);
  for (std::int64_t f = 0; prefix_ok && f < filters; ++f) {
    const std::int64_t lo = begin_in[f], hi = begin_in[f + 1];
    if (lo < 0 || hi > static_cast<std::int64_t>(n) || hi < lo) continue;
    std::int64_t gain = 0;
    for (std::int64_t e = lo; e < hi; ++e) {
      const int s = shift_in[e];
      const std::int64_t step = s >= 0 && s < 62 ? std::int64_t{1} << s
                                                 : kShiftAccumulatorGuard;
      gain = gain > kShiftAccumulatorGuard - step ? kShiftAccumulatorGuard
                                                  : gain + step;
    }
    filter_gain[static_cast<std::size_t>(f)] = gain;
  }
}

// One pass over the entries: each filter's weights are summed into a
// scratch row in int64, checked, and packed. Any value the kernels would
// index by is bounds-checked first, so a hostile plan is refused, not
// followed. The pack is also refused when it would outgrow the plan it
// comes from (more than kMaxDenseWordsPerEntry words per entry): adoption
// then allocates O(entries + filters) whatever the geometry claims, and a
// plan that sparse does less work on the shift walk anyway (the cost hints
// in shift_engine.cpp break even near 6 words per entry).
FLIGHTNN_COLD_ALLOC std::optional<DensePack> pack_dense(
    const ShiftPlan& plan, std::int64_t in_channels, std::int64_t kernel) {
  const auto n = static_cast<std::int64_t>(plan.shift.size());
  const auto stream_ok = [&](std::size_t size) {
    return static_cast<std::int64_t>(size) == n;
  };
  if (in_channels <= 0 || kernel <= 0 || plan.filters < 0 ||
      static_cast<std::int64_t>(plan.filter_begin.size()) !=
          plan.filters + 1 ||
      !stream_ok(plan.sign.size()) || !stream_ok(plan.channel.size()) ||
      !stream_ok(plan.ky.size()) || !stream_ok(plan.kx.size())) {
    return std::nullopt;
  }
  std::int64_t live = 0;
  for (std::int64_t f = 0; f < plan.filters; ++f) {
    const std::int64_t lo = plan.filter_begin[static_cast<std::size_t>(f)];
    const std::int64_t hi = plan.filter_begin[static_cast<std::size_t>(f) + 1];
    if (lo < 0 || hi < lo || hi > n) return std::nullopt;
    live += hi > lo ? 1 : 0;
  }
  const std::int64_t groups = in_channels / 4 + (in_channels % 4 != 0 ? 1 : 0);
  std::int64_t kk = 0;
  std::int64_t taps = 0;
  std::int64_t words = 0;
  if (__builtin_mul_overflow(kernel, kernel, &kk) ||
      __builtin_mul_overflow(groups, kk, &taps) ||
      __builtin_mul_overflow(live, taps, &words) ||
      words > kMaxDenseWordsPerEntry * n) {
    return std::nullopt;
  }
  DensePack pack;
  pack.taps = taps;
  if (live == 0) return pack;  // every filter pruned: run() writes biases
  const auto live_n = static_cast<std::size_t>(live);
  pack.filters.reserve(live_n);
  pack.correction.reserve(live_n);
  pack.negated.reserve(live_n);
  pack.words.reserve(static_cast<std::size_t>(words));
  // Byte (word t, lane i) of a filter: channel 4g + i at tap t = g*kk + ky*k
  // + kx. |w| stays below 2^61 while summing, so no add can overflow.
  constexpr std::int64_t kSumLimit = std::int64_t{1} << 61;
  std::vector<std::int64_t> w(static_cast<std::size_t>(taps * 4));
  for (std::int64_t f = 0; f < plan.filters; ++f) {
    const std::int64_t lo = plan.filter_begin[static_cast<std::size_t>(f)];
    const std::int64_t hi = plan.filter_begin[static_cast<std::size_t>(f) + 1];
    if (lo == hi) continue;  // pruned: run() writes only the bias
    std::fill(w.begin(), w.end(), std::int64_t{0});
    for (std::int64_t e = lo; e < hi; ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const std::int64_t c = plan.channel[ei], ky = plan.ky[ei],
                         kx = plan.kx[ei], sign = plan.sign[ei],
                         shift = plan.shift[ei];
      if (c < 0 || c >= in_channels || ky < 0 || ky >= kernel || kx < 0 ||
          kx >= kernel || (sign != 1 && sign != -1) || shift < 0 ||
          shift >= 62) {
        return std::nullopt;
      }
      std::int64_t& weight =
          w[static_cast<std::size_t>(((c / 4) * kk + ky * kernel + kx) * 4 +
                                     c % 4)];
      weight += sign * (std::int64_t{1} << shift);
      if (weight > kSumLimit || weight < -kSumLimit) return std::nullopt;
    }
    // int8 holds [-128, 127]. A filter that reaches +128 but not -128 (a
    // LightNN-2 weight of 2^0 + 2^0 at the default exponent range) packs
    // negated; run() flips the sign of its scale.
    const auto [lo_w, hi_w] = std::minmax_element(w.begin(), w.end());
    const bool negate = *hi_w > 127;
    if (*lo_w < (negate ? -127 : -128) || *hi_w > (negate ? 128 : 127)) {
      return std::nullopt;
    }
    std::int64_t sum = 0;
    for (std::int64_t& weight : w) {
      if (negate) weight = -weight;
      sum += weight;
    }
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
        FLIGHTNN_CHECK(shift >= 0 && shift < 62,
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
