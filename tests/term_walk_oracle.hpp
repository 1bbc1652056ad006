#pragma once

// Bit-exact oracle for the shift engines: the pre-plan term walk. It
// decomposes the quantized weights into single power-of-two terms (Fig. 3),
// groups the terms by output filter in decomposition order, and walks every
// term's full element vector -- zero elements and all -- accumulating each
// in-bounds tap as a shift-and-signed-add. The int8 pack's dot products add
// exactly these integers, so ShiftConv2d::run -- for a linear layer, the
// 1x1 conv run_linear drives -- must match this walk bit for bit, op counts
// included (DESIGN.md §9). It is slow by design and exists only here, for
// the property suites, beside the decomposition route to a plan
// (reference_compile_conv), which the plan tests hold compile_conv and
// adoption's derived counts to.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/decompose.hpp"
#include "inference/shift_engine.hpp"
#include "inference/shift_plan.hpp"
#include "quant/pow2.hpp"
#include "runtime/thread_pool.hpp"
#include "support/check.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::inference::oracle {

// Term indices grouped by output filter, preserving decomposition order, so
// a filter's terms accumulate in the order serial execution used.
inline std::vector<std::vector<std::size_t>> terms_by_filter(
    const core::Decomposition& decomposition, std::int64_t filters) {
  std::vector<std::vector<std::size_t>> filter_terms(
      static_cast<std::size_t>(filters));
  for (std::size_t t = 0; t < decomposition.terms.size(); ++t) {
    filter_terms[static_cast<std::size_t>(decomposition.terms[t].filter)]
        .push_back(t);
  }
  return filter_terms;
}

// The decomposition route to a plan, kept as compile_conv's reference:
// decompose the weights (Fig. 3), sum each weight's terms back in units of
// 2^e_min, count each nonzero term element as one entry, and pack every
// filter with an entry four channels per word, negated when it reaches
// +128. Takes OIHW or [out, in] weights, as compile_conv does, and returns
// the plan and the decomposition's term count; `tap_entries`, when given,
// receives the entries at each [ky][kx] tap over all filters, which
// adoption derives for the census. Throws CheckFailure where
// decompose_to_lightnn1 does, and for a filter int8 holds neither as it is
// nor negated; a plan it returns may still be one adoption refuses.
inline CompiledPlan reference_compile_conv(
    const tensor::Tensor& quantized_weights, int k_max,
    const quant::Pow2Config& config,
    std::vector<std::int64_t>* tap_entries = nullptr) {
  const tensor::Shape& s = quantized_weights.shape();
  FLIGHTNN_CHECK(s.rank() == 4 || s.rank() == 2,
                 "reference_compile_conv: OIHW or [out, in] weights required");
  const std::int64_t in_channels = s[1];
  const std::int64_t kernel = s.rank() == 4 ? s[2] : 1;
  const core::Decomposition decomposition =
      core::decompose_to_lightnn1(quantized_weights, k_max, config);
  FLIGHTNN_CHECK(in_channels > 0 && kernel > 0,
                 "reference_compile_conv: bad conv geometry ", in_channels,
                 "x", kernel);
  const auto filters = static_cast<std::int64_t>(decomposition.filter_k.size());
  const std::int64_t kk = kernel * kernel;
  const std::int64_t row = in_channels * kk;
  CompiledPlan compiled;
  compiled.term_count = decomposition.term_count();
  ShiftPlan& plan = compiled.plan;
  plan.k_max = k_max;
  std::vector<std::int64_t> taps(static_cast<std::size_t>(kk), 0);
  std::vector<std::int64_t> units(static_cast<std::size_t>(filters * row), 0);
  std::vector<char> has_entry(static_cast<std::size_t>(filters), 0);
  for (const core::Pow2FilterTerm& term : decomposition.terms) {
    for (std::size_t e = 0; e < term.elements.size(); ++e) {
      const quant::Pow2Term w = term.elements[e];
      if (w.sign == 0) continue;  // elided: zero elements are no entries
      const auto ei = static_cast<std::int64_t>(e);
      std::int64_t& u = units[static_cast<std::size_t>(term.filter * row + ei)];
      u += w.sign * (std::int64_t{1} << (static_cast<int>(w.exponent) -
                                        config.e_min));
      FLIGHTNN_CHECK(u >= -(std::int64_t{1} << kMaxShift) &&
                         u <= (std::int64_t{1} << kMaxShift),
                     "reference_compile_conv: a weight past 2^", kMaxShift,
                     " units");
      ++plan.entry_count;
      ++taps[static_cast<std::size_t>(ei % kk)];
      has_entry[static_cast<std::size_t>(term.filter)] = 1;
    }
  }
  const std::int64_t tap_words = (in_channels + 3) / 4 * kk;
  for (std::int64_t f = 0; f < filters; ++f) {
    if (has_entry[static_cast<std::size_t>(f)] == 0) continue;
    const auto first = units.begin() + f * row;
    const auto [lo, hi] = std::minmax_element(first, first + row);
    const bool negate = *hi > 127;
    FLIGHTNN_CHECK(*lo >= (negate ? -127 : -128) && *hi <= (negate ? 128 : 127),
                   "reference_compile_conv: filter ", f,
                   " holds weights int8 cannot hold");
    plan.live.push_back(static_cast<std::int32_t>(f));
    plan.negated.push_back(negate ? 1 : 0);
    std::vector<std::uint32_t> words(static_cast<std::size_t>(tap_words), 0);
    for (std::int64_t c = 0; c < in_channels; ++c) {
      for (std::int64_t t = 0; t < kk; ++t) {
        const std::int64_t u = first[c * kk + t];
        const auto byte = static_cast<std::uint8_t>(negate ? -u : u);
        words[static_cast<std::size_t>((c / 4) * kk + t)] |=
            static_cast<std::uint32_t>(byte) << (8 * (c % 4));
      }
    }
    for (const std::uint32_t word : words) {
      plan.words.push_back(static_cast<std::int32_t>(word));
    }
  }
  if (tap_entries != nullptr) *tap_entries = std::move(taps);
  return compiled;
}

// Term-walk convolution over the same weights a ShiftConv2d was built from.
class TermWalkConv2d {
 public:
  TermWalkConv2d(const tensor::Tensor& quantized_weights, int k_max,
                 const quant::Pow2Config& config, std::int64_t stride,
                 std::int64_t padding, tensor::Tensor bias = {})
      : decomposition_(
            core::decompose_to_lightnn1(quantized_weights, k_max, config)),
        config_(config),
        out_channels_(quantized_weights.shape()[0]),
        in_channels_(quantized_weights.shape()[1]),
        kernel_(quantized_weights.shape()[2]),
        stride_(stride),
        padding_(padding),
        bias_(std::move(bias)),
        filter_terms_(terms_by_filter(decomposition_, out_channels_)) {}

  [[nodiscard]] tensor::Tensor run(const QuantizedActivations& input,
                                   OpCounts* counts = nullptr) const {
    FLIGHTNN_CHECK(input.shape.rank() == 3 && input.shape[0] == in_channels_,
                   "TermWalkConv2d::run: expected [", in_channels_,
                   ", H, W] input, got ", input.shape.to_string());
    const std::int64_t in_h = input.shape[1], in_w = input.shape[2];
    const tensor::ConvGeometry geom{in_channels_, in_h, in_w, kernel_, stride_,
                                    padding_};
    const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();

    const std::int64_t out_hw = out_h * out_w;
    const float scale = std::ldexp(1.0F, input.scale_exp + config_.e_min);
    tensor::Tensor output(tensor::Shape{out_channels_, out_h, out_w});
    std::atomic<std::int64_t> total_shifts{0};
    std::atomic<std::int64_t> total_adds{0};

    runtime::parallel_for(0, out_channels_, 1, [&](std::int64_t f_begin,
                                                   std::int64_t f_end) {
      std::vector<std::int64_t> accumulator(static_cast<std::size_t>(out_hw));
      OpCounts local{};
      for (std::int64_t f = f_begin; f < f_end; ++f) {
        std::fill(accumulator.begin(), accumulator.end(), std::int64_t{0});
        for (const std::size_t t : filter_terms_[static_cast<std::size_t>(f)]) {
          const auto& term = decomposition_.terms[t];
          // Walk the filter elements; each nonzero element is one shifter lane.
          std::int64_t e = 0;
          for (std::int64_t c = 0; c < in_channels_; ++c) {
            const std::int32_t* in_plane = input.values.data() + c * in_h * in_w;
            for (std::int64_t ky = 0; ky < kernel_; ++ky) {
              for (std::int64_t kx = 0; kx < kernel_; ++kx, ++e) {
                const quant::Pow2Term w =
                    term.elements[static_cast<std::size_t>(e)];
                if (w.sign == 0) continue;
                const int shift = static_cast<int>(w.exponent) - config_.e_min;
                for (std::int64_t oy = 0; oy < out_h; ++oy) {
                  const std::int64_t iy = oy * stride_ + ky - padding_;
                  if (iy < 0 || iy >= in_h) continue;
                  for (std::int64_t ox = 0; ox < out_w; ++ox) {
                    const std::int64_t ix = ox * stride_ + kx - padding_;
                    if (ix < 0 || ix >= in_w) continue;
                    const std::int64_t q = in_plane[iy * in_w + ix];
                    accumulator[static_cast<std::size_t>(oy * out_w + ox)] +=
                        (w.sign > 0 ? q : -q) << shift;
                    ++local.shifts;
                    ++local.adds;
                  }
                }
              }
            }
          }
        }
        // Dequantize and fold in the float bias.
        const float b = bias_.empty() ? 0.0F : bias_[f];
        float* out_plane = output.data() + f * out_hw;
        for (std::int64_t i = 0; i < out_hw; ++i) {
          out_plane[i] =
              static_cast<float>(accumulator[static_cast<std::size_t>(i)]) *
                  scale +
              b;
        }
      }
      total_shifts.fetch_add(local.shifts, std::memory_order_relaxed);
      total_adds.fetch_add(local.adds, std::memory_order_relaxed);
    });

    if (counts != nullptr) {
      counts->shifts += total_shifts.load(std::memory_order_relaxed);
      counts->adds += total_adds.load(std::memory_order_relaxed);
    }
    return output;
  }

 private:
  core::Decomposition decomposition_;
  quant::Pow2Config config_;
  std::int64_t out_channels_, in_channels_, kernel_, stride_, padding_;
  tensor::Tensor bias_;
  std::vector<std::vector<std::size_t>> filter_terms_;
};

// The engine a fully-connected layer runs on, as QuantizedNetwork builds it:
// a 1x1 conv over the [in_features, 1, 1] plane, from [out, in] weights.
inline ShiftConv2d linear_engine(const tensor::Tensor& quantized_weights,
                                 int k_max, const quant::Pow2Config& config,
                                 tensor::Tensor bias = {}) {
  const tensor::Shape& s = quantized_weights.shape();
  return {quantized_weights.reshaped(tensor::Shape{s[0], s[1], 1, 1}), k_max,
          config, 1, 0, std::move(bias)};
}

// Runs `engine` (a linear_engine) on the flat feature vector `input` the
// way QuantizedNetwork's kShiftLinear op does; returns [out_features].
inline tensor::Tensor run_linear(const ShiftConv2d& engine,
                                 QuantizedActivations input) {
  input.shape = tensor::Shape{input.shape.numel(), 1, 1};
  tensor::Tensor out = engine.run(input);
  out.reshape(tensor::Shape{engine.out_channels()});
  return out;
}

// Term-walk fully-connected layer over the weights a linear_engine was built
// from.
class TermWalkLinear {
 public:
  TermWalkLinear(const tensor::Tensor& quantized_weights, int k_max,
                 const quant::Pow2Config& config, tensor::Tensor bias = {})
      : decomposition_(
            core::decompose_to_lightnn1(quantized_weights, k_max, config)),
        config_(config),
        out_features_(quantized_weights.shape()[0]),
        in_features_(quantized_weights.shape()[1]),
        bias_(std::move(bias)),
        filter_terms_(terms_by_filter(decomposition_, out_features_)) {}

  [[nodiscard]] tensor::Tensor run(const QuantizedActivations& input,
                                   OpCounts* counts = nullptr) const {
    FLIGHTNN_CHECK(input.shape.numel() == in_features_,
                   "TermWalkLinear::run: input numel ", input.shape.numel(),
                   " does not match in features ", in_features_);
    const float scale = std::ldexp(1.0F, input.scale_exp + config_.e_min);
    tensor::Tensor output(tensor::Shape{out_features_});
    std::atomic<std::int64_t> total_shifts{0};
    std::atomic<std::int64_t> total_adds{0};

    runtime::parallel_for(0, out_features_, 1, [&](std::int64_t f_begin,
                                                   std::int64_t f_end) {
      OpCounts local{};
      for (std::int64_t f = f_begin; f < f_end; ++f) {
        std::int64_t filter_acc = 0;
        for (const std::size_t t : filter_terms_[static_cast<std::size_t>(f)]) {
          const auto& term = decomposition_.terms[t];
          std::int64_t acc = 0;
          for (std::int64_t e = 0; e < in_features_; ++e) {
            const quant::Pow2Term w = term.elements[static_cast<std::size_t>(e)];
            if (w.sign == 0) continue;
            const int shift = static_cast<int>(w.exponent) - config_.e_min;
            const std::int64_t q = input.values[static_cast<std::size_t>(e)];
            acc += (w.sign > 0 ? q : -q) << shift;
            ++local.shifts;
            ++local.adds;
          }
          filter_acc += acc;
        }
        const float b = bias_.empty() ? 0.0F : bias_[f];
        output[f] = static_cast<float>(filter_acc) * scale + b;
      }
      total_shifts.fetch_add(local.shifts, std::memory_order_relaxed);
      total_adds.fetch_add(local.adds, std::memory_order_relaxed);
    });

    if (counts != nullptr) {
      counts->shifts += total_shifts.load(std::memory_order_relaxed);
      counts->adds += total_adds.load(std::memory_order_relaxed);
    }
    return output;
  }

 private:
  core::Decomposition decomposition_;
  quant::Pow2Config config_;
  std::int64_t out_features_, in_features_;
  tensor::Tensor bias_;
  std::vector<std::vector<std::size_t>> filter_terms_;
};

}  // namespace flightnn::inference::oracle
