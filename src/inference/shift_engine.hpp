#pragma once

// Integer shift-add inference engine: the CPU realization of the hardware
// the paper maps (F)LightNNs onto. Activations are 8-bit fixed point with a
// power-of-two scale; weights are decomposed into single power-of-two terms
// (Fig. 3), so in the paper's datapath every multiply is a barrel shift and
// the accumulation is integer adds -- the LightNN-1 engine plus per-layer
// feature-map summation. The engine is bit-exact: its dequantized output
// equals the real-arithmetic convolution of the quantized operands.
//
// Execution reads the layer's int8 pack (inference/shift_plan.hpp), the one
// stored form of its weights: an engine adopts a ShiftPlan -- live filters,
// int8 words and negated bytes, as compile lowers them and the artifact
// stores them -- checks it and derives from its words what the kernels and
// the census read beside it (adopt_plan), and keeps it. A CPU has fast int8
// dot products where the paper's hardware has shifts, so that is the one
// execution path: run() copies the 8-bit input once into a u8 code plane
// (four channels per word, zero-padded and split into `stride` column
// phases, so one dispatched kernel covers every output pixel at every
// stride with no bounds checks) and runs the tier's dot-product kernel
// (shift_kernels.hpp), which adds the term walk's integers exactly
// (DESIGN.md §9). A plan the kernels cannot run -- a weight past k_max
// terms, a filter past the int32 bound -- is refused at adoption. Both
// constructors end in the same place: the weights constructor lowers the
// quantized weights (ShiftPlan::compile_conv), then adopts the plan exactly
// as the artifact load path does. The pre-plan term walk lives in tests/ as
// the bit-exact oracle the property suites compare against.
//
// Like the paper's FPGA evaluation (Sec. 5.2), the engine operates at layer
// granularity -- convolutions dominate >90% of CNN compute, so the largest
// conv layer is the implementation target.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "inference/shift_plan.hpp"
#include "quant/pow2.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::inference {

// Activations quantized to signed integers with scale 2^scale_exp.
struct QuantizedActivations {
  std::vector<std::int32_t> values;  // q; real value = q * 2^scale_exp
  int scale_exp = 0;
  tensor::Shape shape;  // [C, H, W] (single image)
  // Largest |q|, cached at quantize time so run()'s code-range check never
  // rescans the activation vector. -1 = unknown (hand-built activations);
  // abs_max() then falls back to a scan.
  std::int64_t max_abs = -1;

  [[nodiscard]] std::int64_t abs_max() const;
};

// Symmetric `bits`-bit quantization with a power-of-two scale covering the
// abs-max. `image` must be [C, H, W] or [1, C, H, W].
QuantizedActivations quantize_image(const tensor::Tensor& image, int bits = 8);

// Same quantization for a tensor of any shape (rank preserved), e.g. a flat
// feature vector to check a 1x1 engine against.
QuantizedActivations quantize_tensor(const tensor::Tensor& x, int bits = 8);

// quantize_image into `out`, reusing its value buffer (no heap traffic once
// the buffer has reached its high-water size): what the compiled network's
// shift ops call in steady state, a linear op on its input viewed as an
// [in_features, 1, 1] plane. Checks the image's rank and `bits`, as it is
// a public entry point.
void quantize_image_into(const tensor::Tensor& image, int bits,
                         QuantizedActivations& out);

// Dequantize back to float (for comparisons).
tensor::Tensor dequantize(const QuantizedActivations& activations);

// dequantize(quantize_tensor(x, bits)) fused into one float pass over `x`,
// in place: snaps every element to the `bits`-bit pow2-scaled grid without
// materializing the integer codes. Element-wise identical to the two-step
// form; the compiled network's activation-quantization ops rewrite their
// activation with it.
void fake_quantize(tensor::Tensor& x, int bits);

// Operation census of one engine run (ShiftConv2d::census).
struct OpCounts {
  std::int64_t shifts = 0;  // one per nonzero weight term element per output
  std::int64_t adds = 0;    // accumulator additions
};

// Widest activation code the dense kernels take: |q| <= 2^(8-1) - 1 = 127,
// so the code q + 128 fits a u8 lane. from_program refuses a shift op that
// quantizes its input wider, and run() any input with a larger |q|.
inline constexpr int kMaxShiftActBits = 8;

// Arena bytes one ShiftConv2d::run fetches per conv scratch slot; the
// load-time walk sizes the slots with it (DESIGN.md §15).
struct ConvScratchBytes {
  std::size_t offsets = 0;  // int32 per-tap offsets into the code plane
  std::size_t input = 0;    // the u8 code plane
};

// Geometry bundle for engines that adopt an already-compiled plan (every
// engine a QuantizedNetwork holds: the program carries plans, not weights).
struct ShiftConvSpec {
  std::int64_t out_channels = 0;
  std::int64_t in_channels = 0;
  std::int64_t kernel = 0;
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  // Single-shift filter terms the plan was lowered from, as stored beside
  // it; adoption refuses a plan whose words give another count.
  std::int64_t term_count = 0;
};

// A convolution compiled to the single-shift datapath. It is the one shift
// engine: a fully-connected layer [out, in] runs on it as a 1x1 conv
// (in_channels = in, kernel 1, stride 1, padding 0) over its input viewed
// as an [in, 1, 1] plane, which adds the same integers per output as the
// dot product (Fig. 3's single LightNN-1 engine).
class ShiftConv2d {
 public:
  // `quantized_weights` is an OIHW tensor whose elements are sums of at most
  // `k_max` powers of two (output of LightNN-k / FLightNN quantization).
  // `bias` may be empty. Lowers the weights straight into a plan
  // (ShiftPlan::compile_conv, which throws CheckFailure for weights off
  // its grid or past int8), then adopts the plan; the weights are not
  // retained.
  ShiftConv2d(const tensor::Tensor& quantized_weights, int k_max,
              const quant::Pow2Config& config, std::int64_t stride,
              std::int64_t padding, tensor::Tensor bias = {});

  // Adopt an already-compiled plan (the program and artifact load paths).
  // Checks the stride, padding and bias, then the plan (adopt_plan), and
  // that its words give spec.term_count; throws CheckFailure whoever built
  // the plan. The engine keeps the plan as the weights run() reads.
  ShiftConv2d(ShiftPlan plan, const ShiftConvSpec& spec,
              const quant::Pow2Config& config, tensor::Tensor bias = {});

  // Run on one quantized image; returns the dequantized float output
  // [out_channels, out_h, out_w], a Tensor::uninitialized tensor whose every
  // element it writes. Pruned filters cost nothing but their bias, every
  // output pixel runs without bounds checks on the padded, stride-phased
  // code plane, and scratch comes from the per-thread arena's grow-once
  // slots (zero steady-state allocation beyond the pooled output tensor).
  // Throws CheckFailure for an input whose max|q| passes 127 (only
  // hand-built activations can: every kMaxShiftActBits-bit quantization
  // stays inside) or whose plane passes the int32 offset range.
  [[nodiscard]] tensor::Tensor run(const QuantizedActivations& input) const;

  // Scratch one run() on an [in_channels, in_h, in_w] input fetches.
  [[nodiscard]] ConvScratchBytes scratch_bytes(std::int64_t in_h,
                                               std::int64_t in_w) const;

  // Op census of one run() on an [in_channels, in_h, in_w] input: each plan
  // entry counts once per output position whose tap reads a real input
  // element (not a pad cell), the term walk's per-accumulate count exactly.
  // A function of the plan's entries per tap (AdoptedPlan::tap_entries) and
  // the geometry alone, O(kernel^2), so QuantizedNetwork takes it once at
  // load time. Throws CheckFailure for an input run() refuses for its int32
  // plane bound, before it allocates anything.
  [[nodiscard]] OpCounts census(std::int64_t in_h, std::int64_t in_w) const;

  // Number of single-shift filter terms (the LightNN-1 engine's workload).
  [[nodiscard]] std::int64_t term_count() const { return pack_.term_count; }
  [[nodiscard]] std::int64_t out_channels() const { return out_channels_; }
  // The adopted plan, which run() executes.
  [[nodiscard]] const AdoptedPlan& adopted() const { return pack_; }
  // Name of the dense kernel tier run() dispatches to ("scalar" / "avx2" /
  // "vnni"); reflects the currently active dispatch (CPU,
  // FLIGHTNN_FORCE_SCALAR, test override).
  [[nodiscard]] const char* kernel_tier() const;

 private:
  quant::Pow2Config config_;
  std::int64_t out_channels_, in_channels_, kernel_, stride_, padding_;
  tensor::Tensor bias_;  // float; folded in after dequantization
  AdoptedPlan pack_;
};

// Reference float convolution of one image (for bit-exactness tests):
// weights [O, I, K, K], image [C, H, W] -> [O, OH, OW]. Accumulates in
// double so it serves as the "real arithmetic" oracle.
tensor::Tensor reference_conv(const tensor::Tensor& weights,
                              const tensor::Tensor& image, std::int64_t stride,
                              std::int64_t padding,
                              const tensor::Tensor& bias = {});

}  // namespace flightnn::inference
