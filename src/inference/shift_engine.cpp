#include "inference/shift_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "inference/shift_kernels.hpp"
#include "quant/fixedpoint.hpp"
#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "support/annotations.hpp"
#include "support/check.hpp"

namespace flightnn::inference {

namespace {

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

// The code u = q + 128 of an int8 q, as a word's byte.
inline std::uint32_t code_of(std::int8_t q) {
  return static_cast<std::uint32_t>(q + 128);
}

// One code word: channels i < kLive at x[i * hw], 128 in the bytes above.
template <int kLive>
inline std::uint32_t code_word(const std::int8_t* x, std::int64_t hw) {
  std::uint32_t word = kLive == 4 ? 0U : kZeroCodes << (8 * (kLive % 4));
  for (int i = 0; i < kLive; ++i) word |= code_of(x[i * hw]) << (8 * i);
  return word;
}

// `n` code words from input columns from[0], from[s], ...; the unit-stride
// loop is the one the compiler vectorizes.
template <int kLive>
FLIGHTNN_INT_KERNEL void code_words(const std::int8_t* from, std::int64_t hw,
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
    const std::int8_t* src, const tensor::ConvGeometry& g,
    const PaddedPlane& plane, std::uint32_t* dst) {
  const std::int64_t s = g.stride, p = g.padding;
  const std::int64_t hw = g.in_h * g.in_w;
  const std::int64_t phases = std::min(s, g.kernel);
  for (std::int64_t group = 0; group < plane.groups; ++group) {
    const std::int64_t live = std::min<std::int64_t>(4, g.in_channels - 4 * group);
    const std::int8_t* src_g = src + 4 * group * hw;
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
        const std::int8_t* from = src_g + iy * g.in_w + lo * s + phase - p;
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

// The scale exponents quant::scale_exponent gives 2- to 8-bit codes: 2^-149
// at 8 bits takes 2^-155, FLT_MAX at 2 bits 2^128. run() refuses any other,
// so scale_exp + e_min cannot overflow an int.
constexpr int kMinScaleExp = -155;
constexpr int kMaxScaleExp = 128;

// Parallel cost hint of run(), in ns per (tap word x output value), for the
// column tile and the filter tile. kernels_microbench's layer rows through
// run() on the VNNI tier (one pinned CPU of a 4-core AVX-512 VNNI host)
// read 0.029-0.052 for the column tile on planes 16 and 32 wide (the 32->32
// layer at 32x32 the fastest, the 8->8 one the slowest) and 0.028-0.033 for
// the filter tile on the 4x4 and 8x8 layers of 32 or more filters; a layer
// of 12 filters at 4x4 read 0.13, its fixed costs spread over few
// tap-outputs. The column tile takes 0.05, the top of its range, at which
// the pool's gate splits the same wide-plane convs as before; the filter
// tile takes its median, at which the narrow layers of the perf ledger's
// networks stay under the gate and run unsplit.
constexpr double kDenseNsPerTapOutput[2] = {0.05, 0.03};

// The shift ops' one input quantizer: the `bits`-bit codes of `image` into
// `codes`, one per element, at the scale_exponent of its abs-max; returns
// that exponent. quantize_image_into writes a QuantizedActivations' values
// with it and ShiftConv2d::run(x, act_bits, tile) its arena slot.
FLIGHTNN_HOT int quantize_into(const tensor::Tensor& image, int bits,
                               std::int8_t* codes) {
  FLIGHTNN_CHECK(bits >= 2 && bits <= kMaxShiftActBits, "quantize_image: bits ",
                 bits, " outside [2, ", kMaxShiftActBits, "]");
  const std::int32_t q_max = quant::FixedPointConfig{bits}.q_max();
  const int scale_exp = quant::scale_exponent(image.abs_max(), q_max);
  quant::quantize_codes(image.data(), codes, image.numel(), scale_exp, q_max);
  return scale_exp;
}

}  // namespace

// Grows out.values to the image once.
FLIGHTNN_COLD_ALLOC void quantize_image_into(const tensor::Tensor& image,
                                             int bits,
                                             QuantizedActivations& out) {
  const auto& s = image.shape();
  FLIGHTNN_CHECK(s.rank() == 3 || (s.rank() == 4 && s[0] == 1),
                 "quantize_image: expected [C,H,W] or [1,C,H,W], got ",
                 s.to_string());
  out.shape = s.rank() == 3 ? s : tensor::Shape{s[1], s[2], s[3]};
  out.values.resize(static_cast<std::size_t>(image.numel()));
  out.scale_exp = quantize_into(image, bits, out.values.data());
}

FLIGHTNN_ALIGNED void fake_quantize(tensor::Tensor& x, int bits) {
  FLIGHTNN_CHECK(bits >= 2 && bits <= 16, "fake_quantize: bits ", bits,
                 " outside [2, 16]");
  const std::int32_t q_max = quant::FixedPointConfig{bits}.q_max();
  quant::fake_quantize_values(x.data(), x.data(), nullptr, x.numel(),
                              quant::scale_exponent(x.abs_max(), q_max), q_max);
}

QuantizedActivations quantize_image(const tensor::Tensor& image, int bits) {
  QuantizedActivations out;
  quantize_image_into(image, bits, out);
  return out;
}

tensor::Tensor dequantize(const QuantizedActivations& activations) {
  FLIGHTNN_CHECK(static_cast<std::int64_t>(activations.values.size()) ==
                     activations.shape.numel(),
                 "dequantize: ", activations.values.size(),
                 " values do not fill shape ", activations.shape.to_string());
  tensor::Tensor out(activations.shape);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] = quant::scale_code(
        activations.values[static_cast<std::size_t>(i)], activations.scale_exp);
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

// The checking entry point is run(input, tile), which refuses an input of
// any other rank.
FLIGHTNN_HOT tensor::Tensor ShiftConv2d::run(
    const QuantizedActivations& input) const {
  return run(input, input.shape.rank() == 3
                        ? tile(input.shape[1], input.shape[2])
                        : ConvTile::kColumn);
}

FLIGHTNN_HOT FLIGHTNN_API_ENTRY tensor::Tensor ShiftConv2d::run(
    const QuantizedActivations& input, ConvTile tile) const {
  FLIGHTNN_CHECK(input.shape.rank() == 3 && input.shape[0] == in_channels_,
                 "ShiftConv2d::run: expected [", in_channels_,
                 ", H, W] input, got ", input.shape.to_string());
  FLIGHTNN_CHECK(static_cast<std::int64_t>(input.values.size()) ==
                     input.shape.numel(),
                 "ShiftConv2d::run: ", input.values.size(),
                 " values do not fill shape ", input.shape.to_string());
  return run_codes(input.values.data(), input.shape[1], input.shape[2],
                   input.scale_exp, tile);
}

FLIGHTNN_HOT FLIGHTNN_API_ENTRY tensor::Tensor ShiftConv2d::run(
    const tensor::Tensor& x, int act_bits, ConvTile tile) const {
  const auto& s = x.shape();
  FLIGHTNN_CHECK(s.rank() == 3 && s[0] == in_channels_,
                 "ShiftConv2d::run: expected [", in_channels_,
                 ", H, W] input, got ", s.to_string());
  auto* codes = runtime::ScratchArena::current().fetch<std::int8_t>(
      runtime::Scratch::kConvCodes, static_cast<std::size_t>(x.numel()));
  return run_codes(codes, s[1], s[2], quantize_into(x, act_bits, codes), tile);
}

FLIGHTNN_HOT tensor::Tensor ShiftConv2d::run_codes(const std::int8_t* codes,
                                                   std::int64_t in_h,
                                                   std::int64_t in_w,
                                                   int scale_exp,
                                                   ConvTile tile) const {
  FLIGHTNN_CHECK(scale_exp >= kMinScaleExp && scale_exp <= kMaxScaleExp,
                 "ShiftConv2d::run: scale_exp ", scale_exp, " outside [",
                 kMinScaleExp, ", ", kMaxScaleExp, "]");
  const tensor::ConvGeometry geom{in_channels_, in_h,    in_w,
                                  kernel_,      stride_, padding_};
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
  FLIGHTNN_CHECK(out_h > 0 && out_w > 0, "ShiftConv2d::run: [", in_channels_,
                 ", ", in_h, ", ", in_w, "] input gives an empty output");
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
  // The sums' scale 2^out_exp; off normal_scale a float 2^out_exp would
  // underflow or overflow, and the sums take the quantizer's exact product.
  // The float loop stays for normal scales: one loop scaling every sum in
  // double read latency_ms 2-4% higher on all four perf-ledger workloads.
  const int out_exp = scale_exp + config_.e_min;
  const bool exact = !quant::normal_scale(out_exp);
  const float scale = std::ldexp(1.0F, out_exp);
  tensor::Tensor output =
      tensor::Tensor::uninitialized(tensor::Shape{out_channels_, out_h, out_w});
  const auto bias_at = [&](std::int64_t f) {
    return bias_.empty() ? 0.0F : bias_[f];
  };

  // The code plane and one offset per (channel group, ky, kx) tap, in the
  // pack's word order (shift_kernels.hpp).
  std::uint32_t* plane_words = arena.fetch<std::uint32_t>(
      runtime::Scratch::kConvInput,
      static_cast<std::size_t>(plane.groups * plane.channel));
  fill_code_plane(codes, geom, plane, plane_words);
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
  // accumulator gives (+0 + bias).
  const std::vector<std::int32_t>& filters = pack_.plan.live;
  const auto live = static_cast<std::int64_t>(filters.size());
  for (std::int64_t f = 0, next = 0; f < out_channels_; ++f) {
    if (next < live && filters[static_cast<std::size_t>(next)] == f) {
      ++next;
      continue;
    }
    float* out_plane = output.data() + f * out_hw;
    std::fill(out_plane, out_plane + out_hw, 0.0F + bias_at(f));
  }
  // The kernel leaves each live filter's int32 sums in its output plane;
  // dequantize them in place (a separate multiply and add). A negated
  // filter's sum is -S with |S| <= INT32_MAX, and float(-S) * -scale is
  // float(S) * scale exactly.
  const auto dequant_in_place = [&](std::int64_t i_live) {
    const auto at = static_cast<std::size_t>(i_live);
    const std::int64_t f = filters[at];
    const bool negated = pack_.plan.negated[at] != 0;
    const float b = bias_at(f);
    float* out_plane = output.data() + f * out_hw;
    if (exact) {
      for (std::int64_t i = 0; i < out_hw; ++i) {
        std::int32_t acc = 0;
        std::memcpy(&acc, out_plane + i, sizeof acc);
        const float v = quant::scale_code(acc, out_exp);
        out_plane[i] = (negated ? -v : v) + b;
      }
      return;
    }
    const float s = negated ? -scale : scale;
    for (std::int64_t i = 0; i < out_hw; ++i) {
      std::int32_t acc = 0;
      std::memcpy(&acc, out_plane + i, sizeof acc);
      out_plane[i] = static_cast<float>(acc) * s + b;
    }
  };
  // Parallel across units of live filters: a column-tile call's
  // kColumnFilters, or a filter tile's block of kFilterBlock. Cost hint: the
  // tile's measured ns per (tap word x output value) (kDenseNsPerTapOutput).
  // At that rate a conv stays under the pool's dispatch threshold unless it
  // takes tens of microseconds.
  const bool filter_tile = tile == ConvTile::kFilter;
  const std::int64_t unit = filter_tile ? kFilterBlock : kColumnFilters;
  const runtime::CostHint unit_cost{
      kDenseNsPerTapOutput[filter_tile ? 1 : 0] *
      static_cast<double>(pack_.taps) * static_cast<double>(out_hw) *
      static_cast<double>(unit)};
  const DenseConv conv{plane_words,
                       tap_off,
                       pack_.plan.words.data(),
                       pack_.correction.data(),
                       filters.data(),
                       reinterpret_cast<std::int32_t*>(output.data()),
                       stride_ * plane.row_w,
                       out_h,
                       out_w,
                       pack_.taps};
  const DenseConvFn kernel = active_shift_kernels().dense_conv(tile);
  runtime::parallel_for(
      0, (live + unit - 1) / unit, 1, unit_cost,
      [&](std::int64_t u_begin, std::int64_t u_end) {
        // The filter tile takes a worker's units in one call, so it can
        // pair their blocks; the column tile takes one unit at a time, and
        // each unit's planes are dequantized while they are in cache.
        const std::int64_t step = filter_tile ? u_end - u_begin : 1;
        for (std::int64_t u = u_begin; u < u_end; u += step) {
          const std::int64_t first = u * unit;
          const std::int64_t end = std::min((u + step) * unit, live);
          kernel(conv, first, end);
          for (std::int64_t j = first; j < end; ++j) dequant_in_place(j);
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
              sizeof(std::uint32_t),
          static_cast<std::size_t>(in_channels_ * in_h * in_w) *
              sizeof(std::int8_t)};
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

ConvTile ShiftConv2d::tile(std::int64_t in_h, std::int64_t in_w) const {
  const tensor::ConvGeometry geom{in_channels_, in_h, in_w, kernel_, stride_,
                                  padding_};
  return pick_conv_tile(active_shift_kernels().tier, geom.out_h(),
                        geom.out_w(),
                        static_cast<std::int64_t>(pack_.plan.live.size()));
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
