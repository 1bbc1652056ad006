#include "inference/shift_plan.hpp"

#include <algorithm>
#include <limits>

#include "inference/shift_kernels.hpp"
#include "support/annotations.hpp"
#include "support/check.hpp"

namespace flightnn::inference {

namespace {

// Shared lowering: group terms by filter, stream out only nonzero elements.
// `spatial` toggles the conv-only channel/ky/kx streams.
ShiftPlan compile_impl(const core::Decomposition& decomposition,
                       const quant::Pow2Config& config, std::int64_t kernel,
                       bool spatial) {
  const auto filters = static_cast<std::int64_t>(decomposition.filter_k.size());

  ShiftPlan plan;
  plan.filters = filters;

  // Terms grouped by filter in decomposition order (compile-time only; the
  // runtime structure is the flat entry stream).
  std::vector<std::vector<std::size_t>> terms_by_filter(
      static_cast<std::size_t>(filters));
  for (std::size_t t = 0; t < decomposition.terms.size(); ++t) {
    const std::int64_t filter = decomposition.terms[t].filter;
    // A term addressing a filter outside the decomposition's own range used
    // to write straight past terms_by_filter; decompositions built from
    // parsed (untrusted) packs reach this path, so the bound is a hard
    // check, not a DCHECK.
    FLIGHTNN_CHECK(filter >= 0 && filter < filters, "ShiftPlan: term ", t,
                   " addresses filter ", filter, " outside [0, ", filters,
                   ")");
    terms_by_filter[static_cast<std::size_t>(filter)].push_back(t);
  }

  plan.filter_begin.reserve(static_cast<std::size_t>(filters) + 1);
  plan.filter_gain.assign(static_cast<std::size_t>(filters), 0);
  plan.filter_begin.push_back(0);

  for (std::int64_t f = 0; f < filters; ++f) {
    std::int64_t gain = 0;
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
        FLIGHTNN_CHECK(static_cast<std::int64_t>(e) <=
                           std::numeric_limits<std::int32_t>::max(),
                       "ShiftPlan: element index ", e, " overflows int32");
        plan.element.push_back(static_cast<std::int32_t>(e));
        if (spatial) {
          const auto ei = static_cast<std::int64_t>(e);
          const std::int64_t kk = kernel * kernel;
          plan.channel.push_back(static_cast<std::int32_t>(ei / kk));
          plan.ky.push_back(static_cast<std::int16_t>((ei % kk) / kernel));
          plan.kx.push_back(static_cast<std::int16_t>(ei % kernel));
        }
        plan.shift.push_back(static_cast<std::int8_t>(shift));
        plan.sign.push_back(w.sign);
        const std::int64_t g = std::int64_t{1} << shift;
        gain = gain > kShiftAccumulatorGuard - g ? kShiftAccumulatorGuard
                                                 : gain + g;
      }
    }
    plan.filter_gain[static_cast<std::size_t>(f)] = gain;
    plan.filter_begin.push_back(plan.entries());
  }

  plan.build_vector_streams();
  return plan;
}

}  // namespace

// Grow-once lowering of the derived SIMD streams; runs at compile/adopt time
// (never on the inference hot path), hence the allocation boundary marker.
FLIGHTNN_COLD_ALLOC void ShiftPlan::build_vector_streams() {
  if (vector_streams_built) return;
  const std::size_t n = element.size();
  // Read the core streams through const pointers: on an adopted plan they
  // are views, whose mutating operator[] must never be touched.
  const std::int8_t* shift_in = shift.data();
  const std::int8_t* sign_in = sign.data();
  const std::int32_t* element_in = element.data();
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
  const std::int32_t* mult_in = mult.data();

  // Linear plans additionally get the lane-padded gather streams. Conv plans
  // skip them: the conv vector kernel iterates output positions per entry,
  // so it needs no entry padding.
  if (channel.empty() && filters > 0 &&
      static_cast<std::int64_t>(filter_begin.size()) == filters + 1) {
    std::int64_t padded_total = 0;
    pad_begin.reserve(static_cast<std::size_t>(filters) + 1);
    pad_begin.push_back(0);
    const auto span_of = [&](std::int64_t f) -> std::int64_t {
      // Clamp hand-built out-of-range/non-monotone prefixes to an empty
      // span (the artifact loader validates these in depth; adopted test
      // plans may not). A clamped filter simply keeps the scalar path.
      const std::int64_t lo = begin_in[f], hi = begin_in[f + 1];
      if (lo < 0 || hi > static_cast<std::int64_t>(n) || hi < lo) return 0;
      return hi - lo;
    };
    for (std::int64_t f = 0; f < filters; ++f) {
      const std::int64_t len = span_of(f);
      padded_total += (len + kShiftVectorLane - 1) / kShiftVectorLane *
                      kShiftVectorLane;
      pad_begin.push_back(padded_total);
    }
    pad_element.assign(static_cast<std::size_t>(padded_total), 0);
    pad_mult.assign(static_cast<std::size_t>(padded_total), 0);
    const std::int64_t* pad_begin_in = pad_begin.data();
    for (std::int64_t f = 0; f < filters; ++f) {
      const std::int64_t src = begin_in[f];
      const std::int64_t dst = pad_begin_in[f];
      const std::int64_t len = span_of(f);
      for (std::int64_t i = 0; i < len; ++i) {
        pad_element[static_cast<std::size_t>(dst + i)] =
            element_in[src + i];
        pad_mult[static_cast<std::size_t>(dst + i)] = mult_in[src + i];
      }
    }
  }
  vector_streams_built = true;
}

FLIGHTNN_API_ENTRY ShiftPlan ShiftPlan::compile_conv(
    const core::Decomposition& decomposition, const quant::Pow2Config& config,
    std::int64_t in_channels, std::int64_t kernel) {
  FLIGHTNN_CHECK(in_channels > 0 && kernel > 0,
                 "ShiftPlan::compile_conv: bad conv geometry ", in_channels,
                 "x", kernel);
  return compile_impl(decomposition, config, kernel, /*spatial=*/true);
}

FLIGHTNN_API_ENTRY ShiftPlan ShiftPlan::compile_linear(
    const core::Decomposition& decomposition, const quant::Pow2Config& config) {
  FLIGHTNN_CHECK(decomposition.elements_per_filter >= 0,
                 "ShiftPlan::compile_linear: negative elements per filter ",
                 decomposition.elements_per_filter);
  return compile_impl(decomposition, config, 0, /*spatial=*/false);
}

}  // namespace flightnn::inference
