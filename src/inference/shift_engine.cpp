#include "inference/shift_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "inference/shift_kernels.hpp"
#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "support/annotations.hpp"
#include "support/check.hpp"

namespace flightnn::inference {

namespace {

// Largest input magnitude (fallback when QuantizedActivations::max_abs was
// not populated at quantize time).
std::int64_t max_abs_value(const std::vector<std::int32_t>& values) {
  std::int64_t max_abs = 0;
  for (const std::int32_t v : values) {
    const std::int64_t a = v < 0 ? -static_cast<std::int64_t>(v) : v;
    if (a > max_abs) max_abs = a;
  }
  return max_abs;
}

// Integer division helpers for the valid-range and padded-plane arithmetic;
// both require b > 0 and round the true quotient toward -inf / +inf.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return a > 0 ? (a + b - 1) / b : a / b;
}

// Number of output positions o in [0, out_n) whose input index
// o*stride + k - padding lands inside [0, in_n): the accumulates of one
// entry along one axis that read a real input element rather than a pad
// cell. The analytic op census counts one shift-add per such position per
// entry, as the term walk does.
std::int64_t valid_positions(std::int64_t k, std::int64_t out_n,
                             std::int64_t in_n, std::int64_t stride,
                             std::int64_t padding) {
  const std::int64_t lo = std::max<std::int64_t>(0, ceil_div(padding - k, stride));
  const std::int64_t hi =
      std::min(out_n - 1, floor_div(in_n - 1 + padding - k, stride));
  return hi >= lo ? hi - lo + 1 : 0;
}

// Layout of the code plane run() reads (DESIGN.md §9): per group of four
// channels, the input with its zero padding materialized and each padded
// row split into `stride` column phases (padded column px at phase px % s,
// column px / s). Tap (ky, kx) of output (oy, ox) then reads phase kx % s,
// column ox + kx / s of padded row oy*s + ky: out_w contiguous cells per
// output row, in bounds at every stride. Only the rows and columns some
// output reads are kept.
struct PaddedPlane {
  std::int64_t rows, phase_w, row_w, channel;
  std::int64_t groups;  // four-channel groups of the code plane

  explicit PaddedPlane(const tensor::ConvGeometry& g)
      : rows((g.out_h() - 1) * g.stride + g.kernel),
        phase_w(g.out_w() + (g.kernel - 1) / g.stride),
        row_w(g.stride * phase_w),
        channel(rows * row_w),
        groups((g.in_channels + 3) / 4) {}

  // Phase column j of `phase` holds input column j*s + phase - p; [lo, hi)
  // are the j that land inside the input.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> inside(
      const tensor::ConvGeometry& g, std::int64_t phase) const {
    const std::int64_t s = g.stride, p = g.padding;
    const std::int64_t lo =
        std::clamp<std::int64_t>(ceil_div(p - phase, s), 0, phase_w);
    const std::int64_t hi =
        std::clamp<std::int64_t>(ceil_div(g.in_w + p - phase, s), lo, phase_w);
    return {lo, hi};
  }
};

// Four q = 0 codes: every pad cell, and the bytes of channels past
// in_channels.
constexpr std::uint32_t kZeroCodes = 0x80808080U;

// The code u = q + 128 of |q| <= 127, as a word's byte.
inline std::uint32_t code_of(std::int32_t q) {
  return static_cast<std::uint32_t>(q + 128) & 0xFFU;
}

// One code word: channels i < kLive at x[i * hw], 128 in the bytes above.
template <int kLive>
inline std::uint32_t code_word(const std::int32_t* x, std::int64_t hw) {
  std::uint32_t word = kLive == 4 ? 0U : kZeroCodes << (8 * (kLive % 4));
  for (int i = 0; i < kLive; ++i) word |= code_of(x[i * hw]) << (8 * i);
  return word;
}

// `n` code words from input columns from[0], from[s], ...; the unit-stride
// loop is the one the compiler vectorizes.
template <int kLive>
FLIGHTNN_INT_KERNEL void code_words(const std::int32_t* from, std::int64_t hw,
                                    std::int64_t s, std::int64_t n,
                                    std::uint32_t* to) {
  if (s == 1) {
    for (std::int64_t j = 0; j < n; ++j) to[j] = code_word<kLive>(from + j, hw);
  } else {
    for (std::int64_t j = 0; j < n; ++j) {
      to[j] = code_word<kLive>(from + j * s, hw);
    }
  }
}

// Fill the dense path's code plane: per four-channel group, the padded,
// stride-phased geometry above over 32-bit words whose byte i is channel
// 4g + i. The bounds are hoisted per row and per phase, so the inner loops
// carry no division, modulo or bounds check. A kernel narrower than its
// stride reads only rows py with py % s < kernel and phases below kernel
// (a 1x1 stride-2 shortcut: every other row, one phase); the others are
// left unwritten, since no tap reads them.
FLIGHTNN_HOT FLIGHTNN_INT_KERNEL void fill_code_plane(
    const std::int32_t* src, const tensor::ConvGeometry& g,
    const PaddedPlane& plane, std::uint32_t* dst) {
  const std::int64_t s = g.stride, p = g.padding;
  const std::int64_t hw = g.in_h * g.in_w;
  const std::int64_t phases = std::min(s, g.kernel);
  for (std::int64_t group = 0; group < plane.groups; ++group) {
    const std::int64_t live = std::min<std::int64_t>(4, g.in_channels - 4 * group);
    const std::int32_t* src_g = src + 4 * group * hw;
    std::uint32_t* dst_g = dst + group * plane.channel;
    for (std::int64_t py = 0, row_phase = 0; py < plane.rows;
         ++py, row_phase = row_phase + 1 == s ? 0 : row_phase + 1) {
      if (row_phase >= g.kernel) continue;
      std::uint32_t* row = dst_g + py * plane.row_w;
      const std::int64_t iy = py - p;
      if (iy < 0 || iy >= g.in_h) {
        std::fill(row, row + phases * plane.phase_w, kZeroCodes);
        continue;
      }
      for (std::int64_t phase = 0; phase < phases; ++phase) {
        std::uint32_t* dst_phase = row + phase * plane.phase_w;
        const auto [lo, hi] = plane.inside(g, phase);
        std::fill(dst_phase, dst_phase + lo, kZeroCodes);
        std::fill(dst_phase + hi, dst_phase + plane.phase_w, kZeroCodes);
        const std::int32_t* from = src_g + iy * g.in_w + lo * s + phase - p;
        switch (live) {
          case 1: code_words<1>(from, hw, s, hi - lo, dst_phase + lo); break;
          case 2: code_words<2>(from, hw, s, hi - lo, dst_phase + lo); break;
          case 3: code_words<3>(from, hw, s, hi - lo, dst_phase + lo); break;
          default: code_words<4>(from, hw, s, hi - lo, dst_phase + lo); break;
        }
      }
    }
  }
}

// run()'s tap offsets are int32, so every word of the code plane must be.
// The product overflows int64 at capped geometry: 2^22 groups times a plane
// of about 2^52 cells.
bool plane_fits_int32(const PaddedPlane& plane) {
  std::int64_t cells = 0;
  return !__builtin_mul_overflow(plane.groups, plane.channel, &cells) &&
         cells <= std::numeric_limits<std::int32_t>::max();
}

// Largest |q| whose code q + 128 fits a u8 lane symmetrically: every
// kMaxShiftActBits-bit input.
constexpr std::int64_t kMaxDenseCode =
    (std::int64_t{1} << (kMaxShiftActBits - 1)) - 1;

// Parallel cost hint of run(), in ns per (tap word x output value); the
// measurement is at its use.
constexpr double kDenseNsPerTapOutput = 0.05;

// Shared core of the quantize functions: pow2 scale from the abs-max, values
// rounded-to-nearest and clamped symmetric, max|q| cached on the way. `out`
// is reused scratch: its value buffer grows to the largest layer once and is
// never reallocated after (the warm path pre-reserves it). Every shift
// op's input passes through it, and each quant op's through fake_quantize,
// so both start on a cache line.
FLIGHTNN_COLD_ALLOC FLIGHTNN_ALIGNED void quantize_values_into(
    const float* data, std::int64_t n, int bits, float abs_max,
    QuantizedActivations& out) {
  const std::int64_t q_max = (1LL << (bits - 1)) - 1;
  // Tensor::abs_max is NaN/Inf for a non-finite input; the scale exponent
  // cast below would then be undefined.
  FLIGHTNN_CHECK(std::isfinite(abs_max),
                 "quantize: input holds a non-finite value (abs-max ", abs_max,
                 ")");
  int scale_exp = 0;
  if (abs_max > 0.0F) {
    scale_exp = static_cast<int>(
        std::ceil(std::log2(abs_max / static_cast<float>(q_max))));
  }
  // The scale is a power of two, so dividing by it and multiplying by its
  // reciprocal are the same correctly-rounded value -- use the multiply.
  const float inv_scale = std::ldexp(1.0F, -scale_exp);
  // Round-to-nearest-even via the 1.5*2^23 constant: exact for |v| < 2^22,
  // guaranteed here because the scale covers the abs-max (|v| <= q_max <
  // 2^15). Identical results to std::nearbyint in the default rounding
  // mode, but branch-free, libm-free and vectorizable.
  constexpr float kRound = 12582912.0F;  // 1.5 * 2^23
  const auto q_lim = static_cast<std::int32_t>(q_max);

  out.scale_exp = scale_exp;
  out.values.resize(static_cast<std::size_t>(n));
  std::int32_t max_abs_q = 0;
  if (scale_exp >= -126) {
    for (std::int64_t i = 0; i < n; ++i) {
      const float v = data[i] * inv_scale;
      auto q = static_cast<std::int32_t>((v + kRound) - kRound);
      q = std::min(q_lim, std::max(-q_lim, q));
      out.values[static_cast<std::size_t>(i)] = q;
      max_abs_q = std::max(max_abs_q, q < 0 ? -q : q);
    }
  } else {
    // Pathologically tiny abs-max: 2^-scale_exp overflows float, so form the
    // quotient in double (exact: 24-bit mantissa times a power of two).
    const double inv = std::ldexp(1.0, -scale_exp);
    for (std::int64_t i = 0; i < n; ++i) {
      const auto v = static_cast<float>(static_cast<double>(data[i]) * inv);
      auto q = static_cast<std::int32_t>((v + kRound) - kRound);
      q = std::min(q_lim, std::max(-q_lim, q));
      out.values[static_cast<std::size_t>(i)] = q;
      max_abs_q = std::max(max_abs_q, q < 0 ? -q : q);
    }
  }
  out.max_abs = max_abs_q;
}

}  // namespace

std::int64_t QuantizedActivations::abs_max() const {
  return max_abs >= 0 ? max_abs : max_abs_value(values);
}

FLIGHTNN_ALIGNED void quantize_image_into(const tensor::Tensor& image,
                                          int bits, QuantizedActivations& out) {
  const auto& s = image.shape();
  FLIGHTNN_CHECK(s.rank() == 3 || (s.rank() == 4 && s[0] == 1),
                 "quantize_image: expected [C,H,W] or [1,C,H,W], got ",
                 s.to_string());
  FLIGHTNN_CHECK(bits >= 2 && bits <= 16, "quantize_image: bits ", bits,
                 " outside [2, 16]");
  out.shape = s.rank() == 3 ? s : tensor::Shape{s[1], s[2], s[3]};
  quantize_values_into(image.data(), image.numel(), bits, image.abs_max(), out);
}

FLIGHTNN_ALIGNED void fake_quantize(tensor::Tensor& x, int bits) {
  FLIGHTNN_CHECK(bits >= 2 && bits <= 16, "fake_quantize: bits ", bits,
                 " outside [2, 16]");
  const std::int64_t q_max = (1LL << (bits - 1)) - 1;
  const float abs_max = x.abs_max();
  FLIGHTNN_CHECK(std::isfinite(abs_max),
                 "fake_quantize: input holds a non-finite value (abs-max ",
                 abs_max, ")");
  int scale_exp = 0;
  if (abs_max > 0.0F) {
    scale_exp = static_cast<int>(
        std::ceil(std::log2(abs_max / static_cast<float>(q_max))));
  }
  float* values = x.data();
  const std::int64_t n = x.numel();
  const float scale = std::ldexp(1.0F, scale_exp);
  if (scale_exp < -126) {
    // Pathologically tiny abs-max; take the exact two-step path.
    QuantizedActivations q;
    quantize_values_into(values, n, bits, abs_max, q);
    for (std::int64_t i = 0; i < n; ++i) {
      values[i] = static_cast<float>(q.values[static_cast<std::size_t>(i)]) *
                  scale;
    }
    return;
  }
  const float inv_scale = std::ldexp(1.0F, -scale_exp);
  constexpr float kRound = 12582912.0F;  // 1.5 * 2^23, round-to-nearest-even
  const auto lim = static_cast<float>(q_max);
  // The rounded value is integral and |q| <= q_max < 2^15, so the float
  // clamp and the rescale q * 2^scale_exp are both exact -- element-wise
  // identical to quantize-then-dequantize.
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = values[i] * inv_scale;
    float r = (v + kRound) - kRound;
    r = std::min(lim, std::max(-lim, r));
    values[i] = r * scale;
  }
}

QuantizedActivations quantize_image(const tensor::Tensor& image, int bits) {
  QuantizedActivations out;
  quantize_image_into(image, bits, out);
  return out;
}

QuantizedActivations quantize_tensor(const tensor::Tensor& x, int bits) {
  FLIGHTNN_CHECK(bits >= 2 && bits <= 16, "quantize_tensor: bits ", bits,
                 " outside [2, 16]");
  QuantizedActivations out;
  out.shape = x.shape();
  quantize_values_into(x.data(), x.numel(), bits, x.abs_max(), out);
  return out;
}

tensor::Tensor dequantize(const QuantizedActivations& activations) {
  FLIGHTNN_CHECK(static_cast<std::int64_t>(activations.values.size()) ==
                     activations.shape.numel(),
                 "dequantize: ", activations.values.size(),
                 " values do not fill shape ", activations.shape.to_string());
  tensor::Tensor out(activations.shape);
  const float scale = std::ldexp(1.0F, activations.scale_exp);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] = static_cast<float>(activations.values[static_cast<std::size_t>(i)]) * scale;
  }
  return out;
}

namespace {

// Lower the weights, then hand the plan to the adopting constructor -- the
// one construction path every engine takes.
ShiftConv2d lower_conv(const tensor::Tensor& quantized_weights, int k_max,
                       const quant::Pow2Config& config, std::int64_t stride,
                       std::int64_t padding, tensor::Tensor bias) {
  const auto& s = quantized_weights.shape();
  FLIGHTNN_CHECK(s.rank() == 4, "ShiftConv2d: OIHW weights required, got ",
                 s.to_string());
  CompiledPlan compiled =
      ShiftPlan::compile_conv(quantized_weights, k_max, config);
  const ShiftConvSpec spec{s[0],   s[1],    s[2],
                           stride, padding, compiled.term_count};
  return {std::move(compiled.plan), spec, config, std::move(bias)};
}

}  // namespace

ShiftConv2d::ShiftConv2d(const tensor::Tensor& quantized_weights, int k_max,
                         const quant::Pow2Config& config, std::int64_t stride,
                         std::int64_t padding, tensor::Tensor bias)
    : ShiftConv2d(lower_conv(quantized_weights, k_max, config, stride, padding,
                             std::move(bias))) {}

ShiftConv2d::ShiftConv2d(ShiftPlan plan, const ShiftConvSpec& spec,
                         const quant::Pow2Config& config, tensor::Tensor bias)
    : config_(config),
      out_channels_(spec.out_channels),
      in_channels_(spec.in_channels),
      kernel_(spec.kernel),
      stride_(spec.stride),
      padding_(spec.padding),
      bias_(std::move(bias)) {
  FLIGHTNN_CHECK(stride_ > 0 && padding_ >= 0, "ShiftConv2d: bad stride ",
                 stride_, " / padding ", padding_);
  FLIGHTNN_CHECK(bias_.empty() || bias_.numel() == out_channels_,
                 "ShiftConv2d: bias size ", bias_.numel(),
                 " does not match out channels ", out_channels_);
  // The one place an engine's weights come from, compiled or loaded.
  pack_ = adopt_plan(std::move(plan), out_channels_, in_channels_, kernel_,
                     config_);
  FLIGHTNN_CHECK(pack_.term_count == spec.term_count,
                 "ShiftConv2d: stored term count ", spec.term_count,
                 ", the plan's words hold ", pack_.term_count);
}

FLIGHTNN_HOT FLIGHTNN_API_ENTRY tensor::Tensor ShiftConv2d::run(
    const QuantizedActivations& input) const {
  FLIGHTNN_CHECK(input.shape.rank() == 3 && input.shape[0] == in_channels_,
                 "ShiftConv2d::run: expected [", in_channels_,
                 ", H, W] input, got ", input.shape.to_string());
  FLIGHTNN_CHECK(static_cast<std::int64_t>(input.values.size()) ==
                     input.shape.numel(),
                 "ShiftConv2d::run: ", input.values.size(),
                 " values do not fill shape ", input.shape.to_string());
  // The one per-call check of the codes: adopt_plan bounded each filter's
  // int32 sums for |q| <= 127.
  const std::int64_t max_q = input.abs_max();
  FLIGHTNN_CHECK(max_q <= kMaxDenseCode, "ShiftConv2d::run: max |q| ", max_q,
                 " passes ", kMaxDenseCode,
                 ", the widest code a u8 lane holds");
  const tensor::ConvGeometry geom{in_channels_, input.shape[1], input.shape[2],
                                  kernel_,      stride_,        padding_};
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
  FLIGHTNN_CHECK(out_h > 0 && out_w > 0, "ShiftConv2d::run: ",
                 input.shape.to_string(), " input gives an empty output");
  const std::int64_t out_hw = out_h * out_w;
  const PaddedPlane plane(geom);
  FLIGHTNN_CHECK(plane_fits_int32(plane), "ShiftConv2d::run: code plane of ",
                 plane.groups, " x ", plane.channel,
                 " words exceeds the int32 offset range");

  // Scratch is built once per call in the caller's arena. Workers helping
  // the parallel region read it through raw pointers; it stays valid
  // because the caller blocks inside parallel_for and slots are never
  // shared between live kernels.
  runtime::ScratchArena& arena = runtime::ScratchArena::current();
  const float scale = std::ldexp(1.0F, input.scale_exp + config_.e_min);
  tensor::Tensor output =
      tensor::Tensor::uninitialized(tensor::Shape{out_channels_, out_h, out_w});
  const auto bias_at = [&](std::int64_t f) {
    return bias_.empty() ? 0.0F : bias_[f];
  };

  // The code plane and one offset per (channel group, ky, kx) tap, in the
  // pack's word order (shift_kernels.hpp).
  std::uint32_t* codes = arena.fetch<std::uint32_t>(
      runtime::Scratch::kConvInput,
      static_cast<std::size_t>(plane.groups * plane.channel));
  fill_code_plane(input.values.data(), geom, plane, codes);
  std::int32_t* tap_off = arena.fetch<std::int32_t>(
      runtime::Scratch::kConvOffsets, static_cast<std::size_t>(pack_.taps));
  for (std::int64_t g = 0, t = 0; g < plane.groups; ++g) {
    for (std::int64_t ky = 0; ky < kernel_; ++ky) {
      for (std::int64_t kx = 0; kx < kernel_; ++kx, ++t) {
        tap_off[t] = static_cast<std::int32_t>(
            g * plane.channel + ky * plane.row_w +
            (kx % stride_) * plane.phase_w + kx / stride_);
      }
    }
  }
  // A pruned filter's plane is its bias: what dequantizing its zero
  // accumulator gives.
  const std::vector<std::int32_t>& filters = pack_.plan.live;
  const auto live = static_cast<std::int64_t>(filters.size());
  for (std::int64_t f = 0, next = 0; f < out_channels_; ++f) {
    if (next < live && filters[static_cast<std::size_t>(next)] == f) {
      ++next;
      continue;
    }
    float* out_plane = output.data() + f * out_hw;
    std::fill(out_plane, out_plane + out_hw,
              static_cast<float>(std::int32_t{0}) * scale + bias_at(f));
  }
  // The kernel leaves each live filter's int32 sums in its output plane;
  // dequantize them in place (a separate multiply and add). A negated
  // filter's sum is -S with |S| <= INT32_MAX, and float(-S) * -scale is
  // float(S) * scale exactly.
  const auto dequant_in_place = [&](std::int64_t i_live) {
    const auto at = static_cast<std::size_t>(i_live);
    const std::int64_t f = filters[at];
    const float s = pack_.plan.negated[at] != 0 ? -scale : scale;
    const float b = bias_at(f);
    float* out_plane = output.data() + f * out_hw;
    for (std::int64_t i = 0; i < out_hw; ++i) {
      std::int32_t acc = 0;
      std::memcpy(&acc, out_plane + i, sizeof acc);
      out_plane[i] = static_cast<float>(acc) * s + b;
    }
  };
  // Parallel across blocks of kDenseFilterBlock live filters. Cost hint:
  // traced ShiftConv2d::run spans of the VNNI tier (perf ledger, VGG-7
  // w1.0, one CPU of a 4-core AVX-512 host) read 0.032-0.095 ns per
  // (tap word x output value), 0.05 in the median, over its seven convs;
  // the 4x4 64->64 layer, which fills 4 of 16 lanes, is the slowest. At
  // that rate a ledger conv stays under the pool's dispatch threshold
  // unless it takes tens of microseconds.
  const runtime::CostHint block_cost{
      kDenseNsPerTapOutput * static_cast<double>(pack_.taps) *
      static_cast<double>(out_hw) * kDenseFilterBlock};
  const DenseConvGeom dense_geom{stride_ * plane.row_w, out_h, out_w,
                                 pack_.taps};
  const ShiftKernels& kern = active_shift_kernels();
  runtime::parallel_for(
      0, (live + kDenseFilterBlock - 1) / kDenseFilterBlock, 1, block_cost,
      [&](std::int64_t b_begin, std::int64_t b_end) {
        for (std::int64_t b = b_begin; b < b_end; ++b) {
          const std::int64_t first = b * kDenseFilterBlock;
          const auto n = static_cast<int>(
              std::min<std::int64_t>(kDenseFilterBlock, live - first));
          std::int32_t* planes[kDenseFilterBlock] = {};
          for (int j = 0; j < n; ++j) {
            planes[j] = reinterpret_cast<std::int32_t*>(
                output.data() +
                filters[static_cast<std::size_t>(first + j)] * out_hw);
          }
          kern.dense_conv(codes, tap_off,
                          pack_.plan.words.data() + first * pack_.taps,
                          pack_.correction.data() + first, n, dense_geom,
                          planes);
          for (int j = 0; j < n; ++j) dequant_in_place(first + j);
        }
      });
  return output;
}

ConvScratchBytes ShiftConv2d::scratch_bytes(std::int64_t in_h,
                                            std::int64_t in_w) const {
  const PaddedPlane plane(tensor::ConvGeometry{in_channels_, in_h, in_w,
                                               kernel_, stride_, padding_});
  return {static_cast<std::size_t>(pack_.taps) * sizeof(std::int32_t),
          static_cast<std::size_t>(plane.groups * plane.channel) *
              sizeof(std::uint32_t)};
}

OpCounts ShiftConv2d::census(std::int64_t in_h, std::int64_t in_w) const {
  const tensor::ConvGeometry geom{in_channels_, in_h, in_w, kernel_, stride_,
                                  padding_};
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
  // run() refuses a plane past its int32 bound, so the census does too,
  // before its tables: the kernel fits inside the padded plane, so kernel^2
  // <= 2^31 and the two tables stay under 1 MB whatever the geometry claims.
  FLIGHTNN_CHECK(plane_fits_int32(PaddedPlane(geom)),
                 "ShiftConv2d::census: a [", in_channels_, ", ", in_h, ", ",
                 in_w, "] input pads past the int32 offset range");
  // An entry at tap (ky, kx) accumulates vy[ky] * vx[kx] times: the valid
  // output rows of its tap row times the valid columns of its tap column.
  // Adoption counted the entries at each tap, so the census is O(kernel^2)
  // whatever the plan's size.
  const auto k = static_cast<std::size_t>(kernel_);
  std::vector<std::int64_t> vy(k), vx(k);
  for (std::size_t t = 0; t < k; ++t) {
    const auto tap = static_cast<std::int64_t>(t);
    vy[t] = valid_positions(tap, out_h, in_h, stride_, padding_);
    vx[t] = valid_positions(tap, out_w, in_w, stride_, padding_);
  }
  std::int64_t total = 0;
  for (std::size_t t = 0; t < pack_.tap_entries.size(); ++t) {
    total += pack_.tap_entries[t] * vy[t / k] * vx[t % k];
  }
  return {total, total};
}

const char* ShiftConv2d::kernel_tier() const {
  return kernel_tier_name(active_shift_kernels().tier);
}

tensor::Tensor reference_conv(const tensor::Tensor& weights,
                              const tensor::Tensor& image, std::int64_t stride,
                              std::int64_t padding, const tensor::Tensor& bias) {
  const auto& ws = weights.shape();
  const auto& is = image.shape();
  FLIGHTNN_CHECK(ws.rank() == 4 && is.rank() == 3 && ws[1] == is[0] &&
                     ws[2] == ws[3],
                 "reference_conv: bad shapes, weights ", ws.to_string(),
                 " image ", is.to_string());
  const std::int64_t out_ch = ws[0], in_ch = ws[1], kernel = ws[2];
  const std::int64_t in_h = is[1], in_w = is[2];
  const tensor::ConvGeometry geom{in_ch, in_h, in_w, kernel, stride, padding};
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();

  tensor::Tensor output =
      tensor::Tensor::uninitialized(tensor::Shape{out_ch, out_h, out_w});
  for (std::int64_t o = 0; o < out_ch; ++o) {
    const float b = bias.empty() ? 0.0F : bias[o];
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        double acc = b;
        for (std::int64_t c = 0; c < in_ch; ++c) {
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            const std::int64_t iy = oy * stride + ky - padding;
            if (iy < 0 || iy >= in_h) continue;
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t ix = ox * stride + kx - padding;
              if (ix < 0 || ix >= in_w) continue;
              acc += static_cast<double>(
                         weights[((o * in_ch + c) * kernel + ky) * kernel + kx]) *
                     image[(c * in_h + iy) * in_w + ix];
            }
          }
        }
        output[(o * out_h + oy) * out_w + ox] = static_cast<float>(acc);
      }
    }
  }
  return output;
}

}  // namespace flightnn::inference
