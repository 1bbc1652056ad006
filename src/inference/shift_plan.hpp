#pragma once

// The stored form of a shift layer's weights: its int8 pack. A quantized
// FLightNN weight is a sum of k_i powers of two (Fig. 3 decomposes its
// filter into k_i single-shift filters), and with the default exponent
// window every such weight is a whole number of 2^e_min units within
// [-128, 128], one byte: the paper's 8-bit storage of an L-2 weight (Table
// 2). A CPU has fast int8 dot products where the paper's hardware has
// shifts, so the bytes the kernels read are the bytes compile writes, the
// artifact stores and load adopts, re-laid by adoption into the kernels'
// blocked order (DESIGN.md §9, §14).
//
// `ShiftPlan::compile_conv` lowers quantized weights straight into the pack,
// filter by filter: a branch-free vector scan takes each weight's value in
// units and folds the filter's grid checks into one flag, then one pass
// checks each value against the greedy peel (core/decompose.hpp's,
// tabulated over the 257 values once per k_max and window) and writes it as
// its byte. Pruned filters (k_i = 0) have no words and cost nothing but their
// bias. Everything else a run or a census reads is a pure function of the
// bytes and the exponent window, so adopt_plan derives it in one pass over
// the words rather than storing it: each weight's term count is its value's
// peel length, their sum per kernel tap is the census, their maximum per
// filter is k_i and Σ_i k_i the term count. tests/term_walk_oracle.hpp keeps
// the decomposition route as the reference every derived number is held to.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "inference/shift_kernels.hpp"
#include "quant/pow2.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::inference {

struct CompiledPlan;

struct ShiftPlan {
  // Filters with a nonzero weight, strictly ascending. A pruned filter
  // (FLightNN's k_i = 0) has no words.
  std::vector<std::int32_t> live;
  // [live filter][channel group][ky][kx], taps words per live filter
  // (ceil(in_channels / 4) x kernel x kernel): byte i of a word is the int8
  // weight, in units of 2^e_min, of input channel 4 * group + i, and 0 past
  // in_channels. A linear layer is a 1x1 conv: its input features are the
  // channels. That is the order compile writes and the artifact stores;
  // adopt_plan re-lays the words in place into the kernels' blocked order
  // (AdoptedPlan::plan).
  std::vector<std::int32_t> words;
  // Per live filter: 1 when its words hold -w (a filter whose weights reach
  // +128 but not -128), so its int32 sum is the negated dot product; else 0.
  std::vector<std::uint8_t> negated;
  // Most powers of two a weight's greedy peel may take.
  int k_max = 0;
  // Terms of every weight's greedy peel, summed: the single-shift entries
  // the paper's shift engine runs per output pixel, Σ_i k_i · nnz_i for the
  // whole layer.
  std::int64_t entry_count = 0;

  [[nodiscard]] std::int64_t entries() const { return entry_count; }

  // Lower quantized weights: OIHW [filters, in_channels, K, K], or a linear
  // layer's [filters, in_features], which lowers as in_channels =
  // in_features, kernel = 1. Every weight must be u * 2^e_min with integer
  // |u| <= 128 whose greedy peel takes at most k_max terms in the window.
  // Throws CheckFailure, before building anything, for an exponent window
  // adoption refuses, k_max < 1, k_max terms of 2^e_max past FLT_MAX (as
  // every quantizer does) or an empty or malformed shape; then, naming
  // the filter, for a weight off that grid (NaN, +-inf, a fraction of
  // 2^e_min, past 128 units), past k_max terms, or +128 beside -128, which
  // int8 holds neither as it is nor negated.
  static CompiledPlan compile_conv(const tensor::Tensor& quantized_weights,
                                   int k_max, const quant::Pow2Config& config);
};

// What compile_conv returns: the plan and its term count Σ_i k_i, the
// single-shift filters Fig. 3 decomposes the layer into (a ProgramOp's
// term_count, ShiftConv2d::term_count()).
struct CompiledPlan {
  ShiftPlan plan;
  std::int64_t term_count = 0;
};

// A plan checked for the kernels, with what they and the census read beside
// it, derived from its words (adopt_plan).
struct AdoptedPlan {
  // The plan, its words re-laid into the kernels' order (shift_kernels.hpp):
  // [block of kFilterBlock live filters][tap][filter], the last block
  // zero-padded to kFilterBlock filters. The engine keeps no other copy.
  ShiftPlan plan;
  // Words per live filter.
  std::int64_t taps = 0;
  // Per live filter: 128 * (sum of its packed bytes) mod 2^32, the sum the
  // code offset u = q + 128 adds to its accumulator.
  std::vector<std::int32_t> correction;
  // [ky][kx]: the plan's entries at each kernel tap, over all filters and
  // channels (empty when every filter is pruned). An entry's accumulates
  // depend on its tap alone, so the census needs nothing else.
  std::vector<std::int64_t> tap_entries;
  // Σ_i k_i, k_i the longest peel among filter i's weights.
  std::int64_t term_count = 0;
};

// The barrel shifter's budget: the exponent window e_max - e_min is at most
// 61 shifts.
inline constexpr int kMaxShift = 61;

// Adopt a plan over `out_channels` [in_channels, kernel, kernel] filters
// and config's exponent window, whoever built it (compile_conv, an artifact,
// a test): the check of everything the kernels and the census assume, and
// one pass over the words that derives the rest and re-lays them in the
// kernels' blocked order. Throws CheckFailure when
//  - the window lies outside [-126, 127] or spans more than kMaxShift, k_max
//    < 1, k_max terms of 2^e_max pass FLT_MAX, or the geometry is empty or
//    its word count overflows;
//  - the live list is unsorted, repeats a filter or names one outside
//    [0, out_channels), or negated does not hold one 0 or 1 per live filter;
//  - words does not hold taps words per live filter;
//  - a padding lane (a channel past in_channels) is nonzero, a live filter
//    has no nonzero weight, or a weight's peel takes more than k_max terms
//    in the window;
//  - 128 x a filter's sum of |w| passes INT32_MAX, so a u8 x s8 sum over
//    int8 codes could wrap the kernels' int32 accumulator;
//  - the plan's entry count is not the sum of its weights' peel lengths.
// Allocates nothing past O(out_channels + kernel^2) beyond the plan itself,
// its last block's zero padding and one block of words set aside while it
// is re-laid, and the kernel^2 only once the words have paid for it.
AdoptedPlan adopt_plan(ShiftPlan plan, std::int64_t out_channels,
                       std::int64_t in_channels, std::int64_t kernel,
                       const quant::Pow2Config& config);

}  // namespace flightnn::inference
