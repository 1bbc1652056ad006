// Fuzz harness for int8 pack adoption (inference/shift_plan:adopt_plan,
// through the plan-adopting ShiftConv2d constructor every load path takes).
//
// The input bytes are decoded as a little program that builds a plan
// directly, with *no* validity filtering: an exponent window (inverted,
// too wide or past the float exponent range allowed), a k_max, a geometry
// (zero dimensions allowed), a live-filter list (sorted or raw: unsorted,
// repeated, negative, past out_channels), negated bytes (0, 1 or 2 to 17),
// words (one short or one long, bytes mostly on a LightNN-2 value set, any
// int8 otherwise, padding lanes mostly zero) and stored entry and term
// counts (true, or one off). The harness judges the plan by the contract
// adopt_plan documents, computing each weight's term count with the scalar
// specification of the peel (quant::round_to_pow2), and
//  - adoption must refuse, with CheckFailure, exactly the plans that break
//    it, and accept every other;
//  - an accepted plan must run bit-equal to the term-walk oracle
//    (tests/term_walk_oracle.hpp) on the weights its words decode to, on
//    one small input of codes within u8, with the oracle's op counts as its
//    census, the decomposition's term count and entry count, and the
//    filters with a nonzero weight as its live list.
// Anything else (sanitizer finding, uncaught exception, disagreement) is a
// crash. ShiftPlan::compile_conv is held to the decomposition route by
// tests/shift_plan_test.cpp, and hostile artifacts reach adoption through
// fuzz_artifact.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "inference/shift_engine.hpp"
#include "inference/shift_plan.hpp"
#include "quant/pow2.hpp"
#include "support/check.hpp"
#include "tensor/tensor.hpp"

#include "../tests/term_walk_oracle.hpp"
#include "fuzz_driver.hpp"

namespace {

using flightnn::inference::OpCounts;
using flightnn::inference::QuantizedActivations;
using flightnn::inference::ShiftConv2d;
using flightnn::inference::ShiftConvSpec;
using flightnn::inference::ShiftPlan;
using flightnn::quant::Pow2Config;
using flightnn::tensor::Shape;
using flightnn::tensor::Tensor;

// Sequential byte reader; returns 0 past the end so every input decodes to
// *some* plan (short inputs just build small ones).
class ByteProgram {
 public:
  ByteProgram(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return cursor_ < size_ ? data_[cursor_++] : 0; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

// Size clamps keep per-input cost flat (the oracle walks every term over
// every output); the interesting state space is in the *values*.
constexpr int kMaxFilters = 8;
constexpr int kMaxChannels = 9;
constexpr int kMaxKernel = 5;
constexpr int kMaxK = 5;

// Sums of at most two powers of two in [2^-6, 2^0], in units of 2^-6: the
// bytes a LightNN-2 layer at the default window holds.
constexpr int kLightNN2[] = {1,  -2, 3,   5,   -6, 9,  12, -17, 24,  40,
                             -48, 64, 65, -80, 96, -3, 4,  33,  -66, -128};

// One byte of a word. A padding lane (a channel past in_channels) is zero
// unless the class byte is 250 or more.
std::int8_t decode_byte(ByteProgram& program, bool padding) {
  const std::uint8_t c = program.u8();
  if (padding ? c < 250 : c < 96) return 0;
  if (!padding && c < 224) {
    return static_cast<std::int8_t>(kLightNN2[c % std::size(kLightNN2)]);
  }
  return static_cast<std::int8_t>(program.u8());
}

// -1, +1 or 0 (most often) from one byte.
std::int64_t decode_delta(ByteProgram& program) {
  const int b = program.u8() % 16;
  return b == 0 ? -1 : b == 1 ? 1 : 0;
}

[[noreturn]] void disagree() { std::abort(); }

// Terms of the greedy peel of `units` x 2^e_min, by the scalar
// specification, or k_max + 1 when k_max terms do not reach zero.
int peel_length(int units, int k_max, const Pow2Config& config) {
  float residual = std::ldexp(static_cast<float>(units), config.e_min);
  int terms = 0;
  while (residual != 0.0F && terms <= k_max) {
    residual -= flightnn::quant::round_to_pow2(residual, config).value();
    ++terms;
  }
  return residual == 0.0F ? terms : k_max + 1;
}

void fuzz_adopt(const std::uint8_t* data, std::size_t size) {
  ByteProgram program(data, size);

  Pow2Config config;
  config.e_min = static_cast<int>(program.u8()) - 128;  // [-128, 127]
  config.e_max = config.e_min + static_cast<int>(program.u8() % 66) - 2;
  config.flush_to_zero = (program.u8() & 1) != 0;
  ShiftPlan plan;
  plan.k_max = static_cast<int>(program.u8() % (kMaxK + 1));
  const std::int64_t out_channels = program.u8() % (kMaxFilters + 1);
  const std::int64_t in_channels = program.u8() % (kMaxChannels + 1);
  const std::int64_t kernel = program.u8() % (kMaxKernel + 1);
  const std::int64_t stride = 1 + program.u8() % 3;
  const std::int64_t padding = program.u8() % 3;

  if ((program.u8() & 1) != 0) {  // a sorted list: the filters of a mask
    const std::uint8_t mask = program.u8();
    for (std::int32_t f = 0; f < out_channels; ++f) {
      if ((mask >> f & 1) != 0) plan.live.push_back(f);
    }
  } else {  // a raw list
    const int count = program.u8() % (kMaxFilters + 2);
    for (int i = 0; i < count; ++i) {
      plan.live.push_back(static_cast<std::int32_t>(program.u8() % 11) - 1);
    }
  }
  for (std::size_t i = 0; i < plan.live.size(); ++i) {
    const std::uint8_t b = program.u8();
    plan.negated.push_back(
        static_cast<std::uint8_t>(b < 240 ? b & 1 : b - 238));
  }
  const std::int64_t groups = (in_channels + 3) / 4;
  const std::int64_t taps = groups * kernel * kernel;
  const auto live = static_cast<std::int64_t>(plan.live.size());
  const std::int64_t words = live * taps + decode_delta(program);
  for (std::int64_t i = 0; i < std::max<std::int64_t>(words, 0); ++i) {
    std::uint32_t word = 0;
    for (std::int64_t lane = 0; lane < 4; ++lane) {
      const std::int64_t group = taps > 0 ? i % taps / (kernel * kernel) : 0;
      const std::int64_t channel = 4 * group + lane;
      const bool pad = i < live * taps && channel >= in_channels;
      word |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(
                  decode_byte(program, pad)))
              << (8 * lane);
    }
    plan.words.push_back(static_cast<std::int32_t>(word));
  }

  // The contract, judged here: the plan adoption must accept, and the
  // weights its words decode to.
  const std::int64_t window = std::int64_t{config.e_max} - config.e_min;
  bool valid = config.e_min >= flightnn::quant::kMinPow2Exponent &&
               config.e_max <= flightnn::quant::kMaxPow2Exponent &&
               window >= 0 && window <= flightnn::inference::kMaxShift &&
               plan.k_max >= 1 &&
               (plan.k_max < 2 ||
                plan.k_max * std::ldexp(1.0, config.e_max) <=
                    std::numeric_limits<float>::max()) &&
               out_channels > 0 && in_channels > 0 &&
               kernel > 0 &&
               static_cast<std::int64_t>(plan.words.size()) == live * taps;
  for (std::int64_t i = 0; valid && i < live; ++i) {
    const std::int64_t f = plan.live[static_cast<std::size_t>(i)];
    valid = f >= 0 && f < out_channels &&
            (i == 0 || plan.live[static_cast<std::size_t>(i - 1)] < f) &&
            plan.negated[static_cast<std::size_t>(i)] <= 1;
  }
  const std::int64_t row = in_channels * kernel * kernel;
  Tensor wq(Shape{std::max<std::int64_t>(out_channels, 1),
                  std::max<std::int64_t>(in_channels, 1),
                  std::max<std::int64_t>(kernel, 1),
                  std::max<std::int64_t>(kernel, 1)});
  std::int64_t entries = 0;
  std::int64_t term_count = 0;
  for (std::int64_t i = 0; valid && i < live; ++i) {
    const std::int64_t f = plan.live[static_cast<std::size_t>(i)];
    const int sign = plan.negated[static_cast<std::size_t>(i)] != 0 ? -1 : 1;
    int k = 0;
    for (std::int64_t t = 0; t < taps; ++t) {
      const auto word = static_cast<std::uint32_t>(
          plan.words[static_cast<std::size_t>(i * taps + t)]);
      const std::int64_t group = t / (kernel * kernel);
      for (std::int64_t lane = 0; lane < 4; ++lane) {
        const int b = static_cast<std::int8_t>(word >> (8 * lane));
        const std::int64_t channel = 4 * group + lane;
        if (channel >= in_channels) {
          valid = valid && b == 0;
          continue;
        }
        const int n = peel_length(sign * b, plan.k_max, config);
        valid = valid && n <= plan.k_max;
        entries += n;
        k = std::max(k, n);
        wq[f * row + channel * kernel * kernel + t % (kernel * kernel)] =
            std::ldexp(static_cast<float>(sign * b), config.e_min);
      }
    }
    valid = valid && k > 0;
    term_count += k;
  }
  plan.entry_count = entries + decode_delta(program);
  const std::int64_t stored_terms = term_count + decode_delta(program);
  valid = valid && plan.entry_count == entries && stored_terms == term_count;

  std::optional<ShiftConv2d> engine;
  try {
    engine.emplace(plan, ShiftConvSpec{out_channels, in_channels, kernel,
                                       stride, padding, stored_terms},
                   config);
  } catch (const flightnn::support::CheckFailure&) {
  }
  if (engine.has_value() != valid) disagree();
  if (!engine) return;

  // Run one input of codes within u8 on the engine and on the oracle.
  const std::int64_t side = kernel + program.u8() % 3;
  QuantizedActivations input;
  input.shape = Shape{in_channels, side, side};
  input.scale_exp = static_cast<int>(program.u8() % 8) - 4;
  for (std::int64_t i = 0; i < input.shape.numel(); ++i) {
    input.values.push_back(static_cast<std::int32_t>(program.u8() % 255) - 127);
  }
  const flightnn::core::Decomposition decomposition =
      flightnn::core::decompose_to_lightnn1(wq, plan.k_max, config);
  std::int64_t want_entries = 0;
  for (const auto& term : decomposition.terms) {
    for (const auto& element : term.elements) {
      want_entries += element.sign != 0 ? 1 : 0;
    }
  }
  OpCounts counts{};
  const Tensor want = flightnn::inference::oracle::TermWalkConv2d(
                          wq, plan.k_max, config, stride, padding)
                          .run(input, &counts);
  const Tensor got = engine->run(input);
  std::vector<std::int32_t> nonzero;
  for (std::int64_t f = 0; f < out_channels; ++f) {
    const float* filter = wq.data() + f * row;
    if (std::any_of(filter, filter + row, [](float w) { return w != 0.0F; })) {
      nonzero.push_back(static_cast<std::int32_t>(f));
    }
  }
  if (got.shape() != want.shape() ||
      std::memcmp(got.data(), want.data(),
                  static_cast<std::size_t>(got.numel()) * sizeof(float)) != 0 ||
      engine->census(side, side).shifts != counts.shifts ||
      engine->term_count() != decomposition.term_count() ||
      want_entries != entries || nonzero != plan.live) {
    disagree();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  flightnn::support::set_check_policy(flightnn::support::CheckPolicy::kThrow);
  fuzz_adopt(data, size);
  return 0;
}
