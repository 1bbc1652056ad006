#include "inference/shift_plan.hpp"

#include <limits>

#include "support/annotations.hpp"
#include "support/check.hpp"

namespace flightnn::inference {

// Grow-once lowering of the derived streams; runs at adopt time (never on
// the inference hot path), hence the allocation boundary marker.
FLIGHTNN_COLD_ALLOC void ShiftPlan::derive_streams() {
  const std::size_t n = shift.size();
  // Read the core streams through const pointers: on an adopted plan they
  // are views, whose mutating operator[] must never be touched.
  const std::int8_t* shift_in = shift.data();
  const std::int8_t* sign_in = sign.data();
  const std::int64_t* begin_in = filter_begin.data();

  // Per-entry int32 multiplier sign * 2^shift. Shifts above 30 would not fit
  // (and mark a filter whose gain already fails the narrow bound), so they
  // store the never-read 0 sentinel instead of shifting out of range.
  mult.assign(n, 0);
  for (std::size_t e = 0; e < n; ++e) {
    const int s = shift_in[e];
    if (s >= 0 && s <= 30) {
      mult[e] = static_cast<std::int32_t>(sign_in[e]) * (std::int32_t{1} << s);
    }
  }

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
