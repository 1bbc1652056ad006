#include "core/decompose.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace flightnn::core {

tensor::Tensor Decomposition::reconstruct(const tensor::Shape& shape) const {
  tensor::Tensor out(shape);
  for (const auto& term : terms) {
    float* base = out.data() + term.filter * elements_per_filter;
    for (std::int64_t e = 0; e < elements_per_filter; ++e) {
      base[e] += term.elements[static_cast<std::size_t>(e)].value();
    }
  }
  return out;
}

Decomposition decompose_to_lightnn1(const tensor::Tensor& quantized_weights,
                                    int k_max, const quant::Pow2Config& config) {
  FLIGHTNN_CHECK(k_max >= 1, "decompose_to_lightnn1: k_max must be >= 1, got ",
                 k_max);
  const auto& shape = quantized_weights.shape();
  FLIGHTNN_CHECK(shape.rank() >= 1 && shape[0] > 0,
                 "decompose_to_lightnn1: filter-major tensor required, got ",
                 shape.to_string());
  quant::check_exponent_window(config, "decompose_to_lightnn1");
  const std::int64_t filters = shape[0];
  const std::int64_t per_filter = quantized_weights.numel() / filters;
  const auto n = static_cast<std::size_t>(per_filter);

  Decomposition result;
  result.elements_per_filter = per_filter;
  result.filter_k.assign(static_cast<std::size_t>(filters), 0);

  // Peel each filter level by level: level j takes the nearest power of two
  // of each element's remaining residual (quant::peel_level, into a zeroed
  // row, so the row holds the level's terms). A filter is done when all
  // residuals are zero. An element is refused when its residual is not zero
  // after k_max levels, or when its terms do not add back to it: with
  // flush_to_zero off, a weight far below 2^e_min peels into +2^e_min and
  // -2^e_min, whose sum is 0.
  std::vector<float> residual(n);
  std::vector<float> terms(n);
  std::vector<float> sum(n);
  for (std::int64_t i = 0; i < filters; ++i) {
    const float* filter = quantized_weights.data() + i * per_filter;
    residual.assign(filter, filter + per_filter);
    std::fill(sum.begin(), sum.end(), 0.0F);
    for (int level = 0; level < k_max; ++level) {
      if (std::all_of(residual.begin(), residual.end(),
                      [](float v) { return v == 0.0F; })) {
        break;
      }
      std::fill(terms.begin(), terms.end(), 0.0F);
      quant::peel_level(residual.data(), terms.data(), per_filter, config);
      Pow2FilterTerm term;
      term.filter = i;
      term.level = level;
      term.elements.resize(n);
      for (std::size_t e = 0; e < n; ++e) {
        term.elements[e] = quant::pow2_term_of(terms[e]);
        sum[e] += terms[e];
      }
      result.terms.push_back(std::move(term));
      ++result.filter_k[static_cast<std::size_t>(i)];
    }
    for (std::size_t e = 0; e < n; ++e) {
      FLIGHTNN_CHECK(residual[e] == 0.0F && sum[e] == filter[e],
                     "decompose_to_lightnn1: filter ", i, " element ", e, " (",
                     filter[e], ") is not a sum of <= ", k_max,
                     " powers of two in [2^", config.e_min, ", 2^",
                     config.e_max, "]");
    }
  }
  return result;
}

}  // namespace flightnn::core
