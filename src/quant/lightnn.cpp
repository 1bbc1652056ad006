#include "quant/lightnn.hpp"

#include <algorithm>
#include <array>

#include "runtime/thread_pool.hpp"
#include "support/check.hpp"

namespace flightnn::quant {

tensor::Tensor quantize_lightnn(const tensor::Tensor& w, int k,
                                const Pow2Config& config) {
  FLIGHTNN_CHECK(k >= 1, "quantize_lightnn: k must be >= 1, got ", k);
  check_exponent_window(config, "quantize_lightnn");
  check_term_sum(k, config, "quantize_lightnn");
  // Zero-filled: the sums each level adds its terms to.
  tensor::Tensor out(w.shape());
  // Elementwise and independent, so the parallel partition cannot change any
  // result; the cost hint keeps small weight tensors on the calling thread.
  // bench/kernels_microbench's BM_QuantizeLightNN measures about 0.5 ns per
  // weight plus 0.5 ns per level on one thread of an AVX-512 host.
  runtime::parallel_for(
      0, w.numel(), 1024, runtime::CostHint{0.5 + 0.5 * static_cast<double>(k)},
      [&](std::int64_t begin, std::int64_t end) {
        // Level by level over stack blocks of the range: Q_k's recursion is
        // k peel levels from a zero sum, and a level that finds nothing to
        // peel adds +0, so no element needs an early exit.
        constexpr std::int64_t kBlock = 1024;
        std::array<float, kBlock> residual;
        for (std::int64_t b = begin; b < end; b += kBlock) {
          const std::int64_t n = std::min(kBlock, end - b);
          std::copy_n(w.data() + b, n, residual.data());
          for (int j = 0; j < k; ++j) {
            peel_level(residual.data(), out.data() + b, n, config);
          }
        }
      });
  // Every output must decompose back into <= k shifter terms; anything else
  // is a quantizer bug the inference engine would silently mis-execute.
  FLIGHTNN_DCHECK(is_sum_of_pow2(out, k, config),
                  "quantize_lightnn: output not a sum of <= ", k,
                  " power-of-two terms");
  return out;
}

LightNNTransform::LightNNTransform(int k, Pow2Config config)
    : k_(k), config_(config) {
  FLIGHTNN_CHECK(k >= 1, "LightNNTransform: k must be >= 1, got ", k);
  check_exponent_window(config_, "LightNNTransform");
  check_term_sum(k, config_, "LightNNTransform");
}

tensor::Tensor LightNNTransform::forward(const tensor::Tensor& w) {
  return quantize_lightnn(w, k_, config_);
}

std::string LightNNTransform::describe() const {
  return "lightnn-k" + std::to_string(k_);
}

}  // namespace flightnn::quant
