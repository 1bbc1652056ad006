// Fuzz harness for ShiftPlan compilation and adoption
// (inference/shift_plan, inference/shift_engine).
//
// The input bytes are decoded as a little program that builds a bounded
// core::Decomposition with *no* validity filtering: filters may be
// addressed out of range, signs may be arbitrary bytes, exponents may fall
// outside the config window. compile_conv must either accept the
// decomposition or reject it with a typed CheckFailure; anything else
// (sanitizer finding, uncaught exception) is a crash. Kernel 1 is in the
// fuzzed range, so this covers linear layers (1x1 convs) too.
//
// On success the compiled plan's structural invariants are asserted
// (filter_begin a monotone prefix-sum table ending at entries(), all
// per-entry streams of equal length), and the plan is adopted through the
// ShiftConv2d constructor, the one path every plan takes. Adoption must
// either reject it with CheckFailure (check_plan: an entry whose channel
// lands past in_channels, a window wider than the barrel's budget;
// pack_dense: weights int8 cannot hold, a filter past the int32 bound, a
// pack past its words-per-entry bound) or yield a dense form of one block
// of words, one correction and one sign per live filter, within that
// bound. An adopted engine then runs one small input of codes within u8,
// which it must accept, so every plan adoption accepts is also proven safe
// to run.

#include <cstdint>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "core/decompose.hpp"
#include "inference/shift_engine.hpp"
#include "inference/shift_plan.hpp"
#include "quant/pow2.hpp"
#include "support/check.hpp"

#include "fuzz_driver.hpp"

namespace {

using flightnn::core::Decomposition;
using flightnn::core::Pow2FilterTerm;
using flightnn::inference::DensePack;
using flightnn::inference::QuantizedActivations;
using flightnn::inference::ShiftConv2d;
using flightnn::inference::ShiftPlan;
using flightnn::quant::Pow2Config;
using flightnn::quant::Pow2Term;

// Sequential byte reader; returns 0 past the end so every input decodes to
// *some* program (short inputs just build small decompositions).
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

// Size clamps keep per-input cost flat (the compiler is O(entries)); the
// interesting state space is in the *values*, not the counts.
constexpr int kMaxFilters = 16;
constexpr int kMaxTerms = 32;
constexpr int kMaxElements = 64;

void check_plan_invariants(ShiftPlan plan, const Pow2Config& config,
                           std::int64_t in_channels, std::int64_t kernel) {
  const auto filters = static_cast<std::size_t>(plan.filters);
  if (plan.filter_begin.size() != filters + 1) std::terminate();
  if (plan.filter_begin.front() != 0) std::terminate();
  for (std::size_t f = 0; f < filters; ++f) {
    if (plan.filter_begin[f] > plan.filter_begin[f + 1]) std::terminate();
  }
  const auto entries = static_cast<std::size_t>(plan.entries());
  if (plan.filter_begin.back() != plan.entries()) std::terminate();
  if (plan.sign.size() != entries || plan.channel.size() != entries ||
      plan.ky.size() != entries || plan.kx.size() != entries) {
    std::terminate();
  }
  const flightnn::inference::ShiftConvSpec spec{plan.filters, in_channels,
                                                kernel,       1,
                                                kernel / 2,   0};
  std::optional<ShiftConv2d> engine;
  try {
    engine.emplace(std::move(plan), spec, config);
  } catch (const flightnn::support::CheckFailure&) {
    return;  // typed rejection by check_plan or the geometry check
  }
  const DensePack& dense = engine->dense();
  const std::size_t live = dense.filters.size();
  if (dense.taps != (in_channels + 3) / 4 * kernel * kernel ||
      dense.correction.size() != live || dense.negated.size() != live ||
      dense.words.size() != live * static_cast<std::size_t>(dense.taps) ||
      static_cast<std::int64_t>(dense.words.size()) >
          flightnn::inference::kMaxDenseWordsPerEntry *
              engine->plan().entries()) {
    std::terminate();
  }
  QuantizedActivations input;
  input.shape = flightnn::tensor::Shape{in_channels, kernel, kernel};
  input.values.assign(static_cast<std::size_t>(input.shape.numel()), 127);
  (void)engine->run(input);
}

void fuzz_compile(const std::uint8_t* data, std::size_t size) {
  ByteProgram program(data, size);

  Pow2Config config;
  // Window placement is fuzzer-chosen; the [-32, 31] span covers in-range,
  // boundary, and far-out-of-range exponents relative to it.
  config.e_min = -static_cast<int>(program.u8() % 63) - 1;  // [-63, -1]
  config.e_max = config.e_min + static_cast<int>(program.u8() % 64);
  config.flush_to_zero = (program.u8() & 1) != 0;

  const int filters = static_cast<int>(program.u8() % (kMaxFilters + 1));
  const int terms = static_cast<int>(program.u8() % (kMaxTerms + 1));
  const std::int64_t in_channels = static_cast<std::int64_t>(program.u8() % 5);
  const std::int64_t kernel = static_cast<std::int64_t>(program.u8() % 8);

  Decomposition decomposition;
  decomposition.filter_k.assign(static_cast<std::size_t>(filters), 0);
  decomposition.elements_per_filter = program.i8();  // may be negative
  for (int t = 0; t < terms; ++t) {
    Pow2FilterTerm term;
    // Deliberately unclamped: out-of-range filters must be *rejected*, not
    // masked away before the compiler sees them.
    term.filter = program.i8();
    term.level = static_cast<int>(program.u8() % 4);
    const int elements = static_cast<int>(program.u8() % (kMaxElements + 1));
    term.elements.reserve(static_cast<std::size_t>(elements));
    for (int e = 0; e < elements; ++e) {
      Pow2Term w;
      w.sign = program.i8();      // arbitrary, not just {-1, 0, 1}
      w.exponent = program.i8();  // arbitrary, often outside the window
      term.elements.push_back(w);
    }
    if (term.filter >= 0 && term.filter < filters) {
      decomposition.filter_k[static_cast<std::size_t>(term.filter)] += 1;
    }
    decomposition.terms.push_back(std::move(term));
  }

  try {
    ShiftPlan plan =
        ShiftPlan::compile_conv(decomposition, config, in_channels, kernel);
    check_plan_invariants(std::move(plan), config, in_channels, kernel);
  } catch (const flightnn::support::CheckFailure&) {
    // typed rejection: bad geometry, out-of-range filter/sign/shift
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  flightnn::support::set_check_policy(flightnn::support::CheckPolicy::kThrow);
  fuzz_compile(data, size);
  return 0;
}
