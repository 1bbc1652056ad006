// Fuzz harness for the lowering of quantized weights into the int8 pack
// (inference/shift_plan: ShiftPlan::compile_conv), held to the
// decomposition route (tests/term_walk_oracle.hpp:
// oracle::reference_compile_conv).
//
// The input bytes are decoded as a little program that builds a layer: an
// exponent window and a k_max that the coding checks of both accept (any
// window inside the float exponents, at most kMaxShift shifts wide, k_max
// 1 to 8), a geometry (1 to 20 filters over 1 to 9 channels, kernel 1 to
// 3, or a linear layer of 1 to 9 inputs), then, filter by filter, a whole
// filter of zeros or weights drawn one by one from: +0 and -0, values on
// the grid (sums of powers of two and any int8 number of 2^e_min units),
// their neighbours one ulp up or down, NaNs of every payload (quiet and
// signaling, both signs), +-inf, subnormals, and +-128 or +-129 units.
// Then
//  - compile_conv must accept exactly the layers the reference accepts,
//    with the same live list, words, negated bytes, entry count and term
//    count;
//  - and refuse every other with CheckFailure.
// Anything else (sanitizer finding, uncaught exception, disagreement) is a
// crash.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <optional>

#include "inference/shift_plan.hpp"
#include "quant/pow2.hpp"
#include "support/check.hpp"
#include "tensor/tensor.hpp"

#include "../tests/term_walk_oracle.hpp"
#include "fuzz_driver.hpp"

namespace {

using flightnn::inference::CompiledPlan;
using flightnn::inference::ShiftPlan;
using flightnn::quant::Pow2Config;
using flightnn::tensor::Shape;
using flightnn::tensor::Tensor;

// Sequential byte reader; returns 0 past the end so every input decodes to
// *some* layer (short inputs just build small ones).
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

constexpr int kMaxFilters = 20;
constexpr int kMaxChannels = 9;
constexpr int kMaxKernel = 3;
constexpr int kMaxK = 8;

// Units of 2^e_min: powers of two and sums of two, both signs, up to the
// int8 pack's ends.
constexpr int kGridUnits[] = {1,   -1,  2,  -2,  3,  -3,   4,  -4,  5,   6,
                              -7,  8,   9,  12,  -15, 16,  17, -24, 32,  33,
                              -48, 64,  -64, 65, 96,  -96, 127, -127, 128,
                              -128};

constexpr float kInf = std::numeric_limits<float>::infinity();

// One weight, by the class byte and what follows it.
float decode_weight(ByteProgram& program, const Pow2Config& config) {
  const std::uint8_t c = program.u8();
  const auto units = [&](int u) {
    return std::ldexp(static_cast<float>(u), config.e_min);
  };
  if (c < 64) return 0.0F;
  if (c < 80) return -0.0F;
  if (c < 160) {
    return units(kGridUnits[program.u8() % std::size(kGridUnits)]);
  }
  if (c < 176) return units(static_cast<std::int8_t>(program.u8()));
  if (c < 192) {  // one ulp off the grid
    const std::uint8_t b = program.u8();
    const float w = units(kGridUnits[(b >> 1) % std::size(kGridUnits)]);
    return std::nextafter(w, (b & 1) != 0 ? -kInf : kInf);
  }
  if (c < 208) {  // NaN: a nonzero payload, quiet or signaling, either sign
    const std::uint8_t b = program.u8();
    const std::uint32_t payload =
        1U + static_cast<std::uint32_t>(program.u8()) * 0x3F01U;
    return std::bit_cast<float>((b & 1U) << 31 | 0x7F800000U | (b & 2U) << 21 |
                                payload);
  }
  if (c < 216) return (c & 1) != 0 ? -kInf : kInf;
  if (c < 232) {  // subnormal: a nonzero mantissa, either sign
    const std::uint8_t b = program.u8();
    const std::uint32_t mantissa =
        (static_cast<std::uint32_t>(b >> 1) << 16 |
         static_cast<std::uint32_t>(program.u8()) << 8 | program.u8()) |
        1U;
    return std::bit_cast<float>((b & 1U) << 31 | mantissa);
  }
  const std::uint8_t b = program.u8();
  return units(((b & 1) != 0 ? -1 : 1) * ((b & 2) != 0 ? 129 : 128));
}

[[noreturn]] void disagree() { std::abort(); }

void fuzz_compile(const std::uint8_t* data, std::size_t size) {
  ByteProgram program(data, size);

  Pow2Config config;
  config.e_min = flightnn::quant::kMinPow2Exponent + program.u8() % 254;
  const int span = program.u8() % (flightnn::inference::kMaxShift + 1);
  const int k_max = 1 + program.u8() % kMaxK;
  config.flush_to_zero = (program.u8() & 1) != 0;
  // k_max terms of 2^e_max stay within FLT_MAX (check_term_sum).
  const int top = flightnn::quant::kMaxPow2Exponent -
                  std::bit_width(static_cast<unsigned>(k_max - 1));
  config.e_max = std::min(config.e_min + span, top);
  config.e_min = std::min(config.e_min, config.e_max);
  const std::int64_t filters = 1 + program.u8() % kMaxFilters;
  const std::int64_t channels = 1 + program.u8() % kMaxChannels;
  const std::uint8_t kind = program.u8();
  const std::int64_t kernel = 1 + kind % kMaxKernel;
  Tensor wq = kind >= 128 ? Tensor(Shape{filters, channels})
                          : Tensor(Shape{filters, channels, kernel, kernel});
  const std::int64_t row = wq.numel() / filters;
  for (std::int64_t f = 0; f < filters; ++f) {
    const bool pruned = program.u8() < 32;
    for (std::int64_t e = 0; e < row; ++e) {
      wq[f * row + e] = pruned ? 0.0F : decode_weight(program, config);
    }
  }

  std::optional<CompiledPlan> want;
  try {
    want = flightnn::inference::oracle::reference_compile_conv(wq, k_max,
                                                               config);
  } catch (const flightnn::support::CheckFailure&) {
  }
  std::optional<CompiledPlan> got;
  try {
    got = ShiftPlan::compile_conv(wq, k_max, config);
  } catch (const flightnn::support::CheckFailure&) {
  }
  if (got.has_value() != want.has_value()) disagree();
  if (!got) return;
  const ShiftPlan& g = got->plan;
  const ShiftPlan& w = want->plan;
  if (g.live != w.live || g.words != w.words || g.negated != w.negated ||
      g.entry_count != w.entry_count || g.k_max != k_max ||
      got->term_count != want->term_count) {
    disagree();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  flightnn::support::set_check_policy(flightnn::support::CheckPolicy::kThrow);
  fuzz_compile(data, size);
  return 0;
}
