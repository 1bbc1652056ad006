// Fig. 2 walkthrough: trace the FLightNN quantization flow on a single
// convolutional filter, printing each level's residual norm, the threshold
// comparison, and the power-of-two terms that survive.
//
//   $ ./examples/quantize_inspect

#include <cstdio>

#include "core/decompose.hpp"
#include "core/flightnn_transform.hpp"
#include "support/rng.hpp"

int main() {
  using namespace flightnn;

  support::Rng rng(7);
  const std::int64_t elems = 9;  // one 3x3 single-channel filter
  tensor::Tensor w = tensor::Tensor::randn(tensor::Shape{1, elems}, rng, 0.0F, 0.3F);

  std::printf("full-precision filter w:\n  ");
  for (std::int64_t i = 0; i < elems; ++i) std::printf("%+7.4f ", w[i]);
  std::printf("\n\n");

  for (const auto& thresholds : {std::vector<float>{0.0F, 0.0F},
                                std::vector<float>{0.0F, 0.30F},
                                std::vector<float>{0.95F, 0.30F}}) {
    core::FLightNNTransform transform;
    transform.set_thresholds(thresholds);
    std::printf("thresholds t = (%.2f, %.2f)  [Fig. 2 flow]\n", thresholds[0],
                thresholds[1]);

    // Re-run the flow manually for display.
    tensor::Tensor residual = w;
    for (int level = 0; level < 2; ++level) {
      const double norm = residual.l2_norm();
      const bool fires = norm > thresholds[static_cast<std::size_t>(level)];
      std::printf("  level %d: ||r|| = %.4f %s t_%d = %.2f -> %s\n", level,
                  norm, fires ? ">" : "<=", level,
                  thresholds[static_cast<std::size_t>(level)],
                  fires ? "emit R(r), continue" : "stop");
      if (!fires) break;
      tensor::Tensor rounded = quant::round_to_pow2(residual, quant::Pow2Config{});
      std::printf("    R(r) = ");
      for (std::int64_t i = 0; i < elems; ++i) std::printf("%+7.4f ", rounded[i]);
      std::printf("\n");
      residual -= rounded;
    }

    tensor::Tensor q = transform.forward(w);
    const int k = transform.filter_k(w)[0];
    std::printf("  => k_i = %d, quantized filter:\n     ", k);
    for (std::int64_t i = 0; i < elems; ++i) std::printf("%+7.4f ", q[i]);
    tensor::Tensor error = w - q;
    std::printf("\n  => approximation error ||w - Q(w)|| = %.4f\n\n",
                error.l2_norm());
  }

  std::printf(
      "reading: t = 0 keeps two shift terms per weight; raising t_1 drops\n"
      "the refinement term (k_i = 1); raising t_0 past ||w|| prunes the\n"
      "whole filter (k_i = 0). Training learns t instead of hand-picking.\n");
  return 0;
}
