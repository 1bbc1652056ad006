#pragma once

// Fig. 3 of the paper: a convolution with a k_i > 1 filter is equivalent to
// k_i convolutions with k_i = 1 (single power-of-two) filters whose outputs
// are summed. This module performs that decomposition on quantized weight
// tensors so any FLightNN can run on a LightNN-1 (single-shift) engine with
// an extra feature-map summation per layer -- which is exactly how the
// integer inference engine in inference/ consumes it.

#include <vector>

#include "quant/pow2.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::core {

// One single-shift filter extracted from a multi-shift filter.
struct Pow2FilterTerm {
  std::int64_t filter = 0;  // index of the original filter (output channel)
  int level = 0;            // which shift term of that filter (0-based)
  // Per-element power-of-two terms; sign == 0 marks a zero element.
  std::vector<quant::Pow2Term> elements;
};

struct Decomposition {
  // All single-shift terms, grouped by original filter in ascending order.
  std::vector<Pow2FilterTerm> terms;
  // k_i per original filter (0 for fully pruned filters, which produce no
  // terms).
  std::vector<int> filter_k;
  std::int64_t elements_per_filter = 0;

  // Total single-shift convolutions the LightNN-1 engine must run.
  [[nodiscard]] std::int64_t term_count() const {
    return static_cast<std::int64_t>(terms.size());
  }

  // Reassemble the float weight tensor (for equivalence checks).
  [[nodiscard]] tensor::Tensor reconstruct(const tensor::Shape& shape) const;
};

// Decompose a quantized, filter-major weight tensor whose every element is a
// sum of at most `k_max` powers of two (the output of LightNN-k or FLightNN
// quantization). Throws CheckFailure for a window check_exponent_window
// refuses, and, naming the filter and the element, if an element fails to
// reduce to zero within k_max greedy peeling steps or its terms do not add
// back to it, i.e. if the tensor is not actually quantized: reconstruct()
// gives back every tensor this accepts.
Decomposition decompose_to_lightnn1(const tensor::Tensor& quantized_weights,
                                    int k_max, const quant::Pow2Config& config);

}  // namespace flightnn::core
