// Fuzz harness for ShiftPlan compilation and adoption
// (inference/shift_plan, inference/shift_engine).
//
// The input bytes are decoded as a little program that builds a bounded
// weight tensor -- OIHW or a linear layer's [out, in], zero dimensions
// allowed -- with an exponent window and a k_max, and *no* validity
// filtering: the window may be inverted, too wide or past the float
// exponent range, and a weight may be on the window's grid, past 128 units,
// a fraction of a unit, tiny, NaN, infinite or any float bit pattern.
// ShiftPlan::compile_conv must agree with the lowering it replaced
// (tests/term_walk_oracle.hpp: decompose_to_lightnn1, then the term-by-term
// loop):
//  - where the window is one check_plan refuses, compile_conv refuses before
//    the reference runs (the decomposition assumes a sane window);
//  - where the reference lowers the weights, compile_conv yields the same
//    streams, filter_begin and term count, or refuses with CheckFailure
//    because adoption refuses the reference's plan or the reference's
//    terms do not sum back to its weights in double;
//  - where the reference refuses, compile_conv refuses too (with
//    flush_to_zero off, a weight below 2^(e_min - 24) peels into a
//    cancelling +-2^e_min pair, which both refuse).
// Anything else (sanitizer finding, uncaught exception, disagreement) is a
// crash.
//
// A lowered plan is then adopted through the ShiftConv2d constructor, the
// one path every plan takes. Adoption must either reject it with
// CheckFailure (pack_dense: weights int8 cannot hold, a filter past the
// int32 bound, a pack past its words-per-entry bound) or yield a dense form
// of one block of words, one correction and one sign per live filter,
// within that bound. An adopted engine then runs one small input of codes
// within u8, which it must accept, so every plan adoption accepts is also
// proven safe to run. Hostile plan streams reach adoption through
// fuzz_artifact and the hand-built plans of tests/shift_plan_test.cpp.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
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

using flightnn::inference::CompiledPlan;
using flightnn::inference::DensePack;
using flightnn::inference::QuantizedActivations;
using flightnn::inference::ShiftConv2d;
using flightnn::inference::ShiftConvSpec;
using flightnn::inference::ShiftPlan;
using flightnn::quant::Pow2Config;
using flightnn::tensor::Shape;
using flightnn::tensor::Tensor;

// Sequential byte reader; returns 0 past the end so every input decodes to
// *some* program (short inputs just build small tensors).
class ByteProgram {
 public:
  ByteProgram(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return cursor_ < size_ ? data_[cursor_++] : 0; }
  std::int8_t i8() { return static_cast<std::int8_t>(u8()); }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

// Size clamps keep per-input cost flat (both lowerings are O(weights x
// k_max)); the interesting state space is in the *values*, not the counts.
constexpr int kMaxFilters = 8;
constexpr int kMaxChannels = 6;
constexpr int kMaxKernel = 5;
constexpr int kMaxK = 5;

// One weight, decoded from a class byte and its payload.
float decode_weight(ByteProgram& program, const Pow2Config& config) {
  const int kind = program.u8() % 16;
  if (kind < 10) {  // on the grid, within int8
    return std::ldexp(static_cast<float>(program.i8()), config.e_min);
  }
  switch (kind) {
    case 10: {  // 128 to 135 units: only +-128 has an int8 byte
      const std::uint8_t b = program.u8();
      const float units = static_cast<float>(128 + b % 8);
      return std::ldexp((b & 0x80) != 0 ? -units : units, config.e_min);
    }
    case 11:
      return (program.u8() & 1) != 0 ? -0.0F : 0.0F;
    case 12: {
      const std::uint8_t b = program.u8() % 3;
      if (b == 0) return std::numeric_limits<float>::quiet_NaN();
      return b == 1 ? std::numeric_limits<float>::infinity()
                    : -std::numeric_limits<float>::infinity();
    }
    case 13: {  // a whole number of units plus a fraction
      const float units = static_cast<float>(program.i8()) +
                          static_cast<float>(program.u8() % 255 + 1) / 256.0F;
      return std::ldexp(units, config.e_min);
    }
    case 14:  // below half a unit: flushed, or peeled to a cancelling pair
      return std::ldexp(1.0F, config.e_min - 1 - program.u8() % 40);
    default: {  // any bit pattern
      std::uint32_t bits = 0;
      for (int i = 0; i < 4; ++i) {
        bits |= static_cast<std::uint32_t>(program.u8()) << (8 * i);
      }
      float w = 0.0F;
      std::memcpy(&w, &bits, sizeof w);
      return w;
    }
  }
}

[[noreturn]] void disagree() { std::abort(); }

bool same_plan(const CompiledPlan& a, const CompiledPlan& b) {
  const auto same = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           std::equal(x.begin(), x.end(), y.begin());
  };
  return a.term_count == b.term_count && a.plan.filters == b.plan.filters &&
         same(a.plan.filter_begin, b.plan.filter_begin) &&
         same(a.plan.channel, b.plan.channel) && same(a.plan.ky, b.plan.ky) &&
         same(a.plan.kx, b.plan.kx) && same(a.plan.shift, b.plan.shift) &&
         same(a.plan.sign, b.plan.sign);
}

// Whether a plan's terms sum back to every weight of `wq` exactly. The
// reference plan's shifts lie in the window, so each term and each sum of a
// few of them is exact in double.
bool sums_back(const CompiledPlan& compiled, const Tensor& wq,
               std::int64_t kernel, const Pow2Config& config) {
  const ShiftPlan& plan = compiled.plan;
  const std::int64_t row = wq.numel() / plan.filters;
  std::vector<double> rebuilt(static_cast<std::size_t>(wq.numel()), 0.0);
  for (std::int64_t f = 0; f < plan.filters; ++f) {
    const auto fi = static_cast<std::size_t>(f);
    for (std::int64_t e = plan.filter_begin[fi]; e < plan.filter_begin[fi + 1];
         ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const std::int64_t at = f * row +
                              (plan.channel[ei] * kernel + plan.ky[ei]) * kernel +
                              plan.kx[ei];
      rebuilt[static_cast<std::size_t>(at)] +=
          plan.sign[ei] * std::ldexp(1.0, plan.shift[ei] + config.e_min);
    }
  }
  for (std::int64_t i = 0; i < wq.numel(); ++i) {
    if (rebuilt[static_cast<std::size_t>(i)] != static_cast<double>(wq[i])) {
      return false;
    }
  }
  return true;
}

// Adopts the plan (stride 1, padding kernel / 2); nullopt when adoption
// refuses it.
std::optional<ShiftConv2d> adopt(CompiledPlan compiled,
                                 std::int64_t in_channels, std::int64_t kernel,
                                 const Pow2Config& config) {
  const ShiftConvSpec spec{compiled.plan.filters, in_channels, kernel, 1,
                           kernel / 2, compiled.term_count};
  try {
    return ShiftConv2d(std::move(compiled.plan), spec, config);
  } catch (const flightnn::support::CheckFailure&) {
    return std::nullopt;  // typed rejection by check_plan or pack_dense
  }
}

// `entries`: the adopted plan's, which the engine does not keep.
void run_adopted(const ShiftConv2d& engine, std::int64_t entries,
                 std::int64_t in_channels, std::int64_t kernel) {
  const DensePack& dense = engine.dense();
  const std::size_t live = dense.filters.size();
  if (dense.taps != (in_channels + 3) / 4 * kernel * kernel ||
      dense.correction.size() != live || dense.negated.size() != live ||
      dense.words.size() != live * static_cast<std::size_t>(dense.taps) ||
      static_cast<std::int64_t>(dense.words.size()) >
          flightnn::inference::kMaxDenseWordsPerEntry * entries) {
    std::terminate();
  }
  QuantizedActivations input;
  input.shape = Shape{in_channels, kernel, kernel};
  input.values.assign(static_cast<std::size_t>(input.shape.numel()), 127);
  (void)engine.run(input);
}

void fuzz_compile(const std::uint8_t* data, std::size_t size) {
  ByteProgram program(data, size);

  Pow2Config config;
  config.e_min = static_cast<int>(program.u8()) - 128;  // [-128, 127]
  config.e_max = config.e_min + static_cast<int>(program.u8() % 66) - 2;
  config.flush_to_zero = (program.u8() & 1) != 0;
  const int k_max = static_cast<int>(program.u8() % (kMaxK + 1));
  const bool conv = (program.u8() & 1) != 0;
  const std::int64_t filters = program.u8() % (kMaxFilters + 1);
  const std::int64_t in_channels = program.u8() % (kMaxChannels + 1);
  const std::int64_t kernel = conv ? program.u8() % (kMaxKernel + 1) : 1;

  const Shape shape = conv ? Shape{filters, in_channels, kernel, kernel}
                           : Shape{filters, in_channels};
  Tensor wq(shape);
  for (std::int64_t i = 0; i < wq.numel(); ++i) {
    wq[i] = decode_weight(program, config);
  }

  std::optional<CompiledPlan> got;
  try {
    got = ShiftPlan::compile_conv(wq, k_max, config);
  } catch (const flightnn::support::CheckFailure&) {
  }
  const std::int64_t window = std::int64_t{config.e_max} - config.e_min;
  if (config.e_min < -126 || config.e_max > 127 || window < 0 ||
      window > flightnn::inference::kMaxShift) {
    if (got) disagree();  // lowered under a window adoption refuses
    return;
  }
  std::optional<CompiledPlan> want;
  try {
    want = flightnn::inference::oracle::reference_compile_conv(wq, k_max,
                                                               config);
  } catch (const flightnn::support::CheckFailure&) {
  }
  if (!want) {
    if (got) disagree();  // lowered what the reference refuses
    return;
  }
  if (!got) {
    if (!sums_back(*want, wq, kernel, config)) return;  // a lossy reference
    if (!adopt(std::move(*want), in_channels, kernel, config)) return;
    disagree();  // refused a plan the reference lowers and adoption takes
  }
  if (!same_plan(*got, *want)) disagree();
  const std::int64_t entries = got->plan.entries();
  const std::optional<ShiftConv2d> engine =
      adopt(std::move(*got), in_channels, kernel, config);
  if (engine) run_adopted(*engine, entries, in_channels, kernel);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  flightnn::support::set_check_policy(flightnn::support::CheckPolicy::kThrow);
  fuzz_compile(data, size);
  return 0;
}
