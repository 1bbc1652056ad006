#pragma once

// Compiled execution plan for the shift-add engine. A quantized FLightNN
// weight is a sum of k_i powers of two (Fig. 3 decomposes its filter into
// k_i single-shift filters), and most of its single-shift elements are
// zero: walking every term's full element vector at inference time makes
// the inner loop pay for weights that contribute nothing -- exactly the
// cost the paper's per-filter k_i is supposed to eliminate.
//
// `ShiftPlan::compile_conv` lowers the quantized weights once, straight into
// a flat structure-of-arrays: one contiguous stream of (channel, ky, kx,
// shift, sign) entries per filter, with every zero element and every pruned
// filter elided, so the analytic op census counts exactly Σ_i k_i · nnz_i
// shift-adds -- the paper's energy-proportionality. It yields the entries
// the Fig. 3 decomposition's greedy peel (core/decompose.hpp) would, without
// building the decomposition (tests/term_walk_oracle.hpp keeps that route
// as the reference).
//
// The plan is also the one stored form of the weights, and nothing derived
// is kept in it. An engine that adopts it rebuilds each filter's int8
// weights from the entries (pack_dense below), keeps only that dense form
// and runs it: a live filter costs the same for every k_i in {1, 2}, and a
// pruned one (k_i = 0) costs nothing. A plan the pack cannot hold is
// refused at adoption.
//
// Entry order is: filters ascending; within a filter, peel levels
// ascending (level 0 is each weight's largest term); within a level,
// nonzero elements in (channel, ky, kx) order. The order is stable and
// documented, but the engine's correctness does not depend on it: the pack
// sums each weight's entries exactly, so any entry order gives the same
// weights and the same integer sums as the reference term-walk (DESIGN.md
// §9).

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "quant/pow2.hpp"
#include "support/check.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::inference {

// Own-or-view array for the plan's SoA streams. A plan built by compile_conv
// owns its storage (sized once, then written in place); a plan fixed up from a
// mapped deployment artifact *views* the blob's sections directly -- zero
// copies, the mapping is the storage. The read API
// (data/size/operator[]/iteration) is identical in both modes, so the
// kernels never know the difference; mutation is owning-mode only.
template <typename T>
class PlanArray {
 public:
  PlanArray() = default;

  // A non-owning window into `count` elements at `data`. The caller
  // guarantees the backing memory (e.g. an artifact mapping) outlives the
  // plan; alignment must satisfy alignof(T).
  static PlanArray view(const T* data, std::size_t count) {
    PlanArray array;
    array.viewing_ = true;
    array.data_ = data;
    array.size_ = count;
    return array;
  }

  // Copies rebind data_ to the copy's own storage; a copied view stays a
  // view of the same memory.
  PlanArray(const PlanArray& other) { *this = other; }
  PlanArray& operator=(const PlanArray& other) {
    if (this == &other) return *this;
    viewing_ = other.viewing_;
    own_ = other.own_;
    if (viewing_) {
      data_ = other.data_;
      size_ = other.size_;
    } else {
      rebind();
    }
    return *this;
  }
  PlanArray(PlanArray&& other) noexcept { *this = std::move(other); }
  PlanArray& operator=(PlanArray&& other) noexcept {
    if (this == &other) return *this;
    viewing_ = other.viewing_;
    own_ = std::move(other.own_);
    if (viewing_) {
      data_ = other.data_;
      size_ = other.size_;
    } else {
      rebind();
    }
    other.viewing_ = false;
    other.own_.clear();
    other.rebind();
    return *this;
  }

  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool is_view() const { return viewing_; }

  const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] const T& front() const { return data_[0]; }
  [[nodiscard]] const T& back() const { return data_[size_ - 1]; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }

  // --- owning-mode mutation (compile-time lowering and tests) -------------
  // On a view own_ is empty, so this guard is always on: read an adopted
  // plan through a const reference.
  T& operator[](std::size_t i) {
    FLIGHTNN_CHECK(!viewing_, "PlanArray: mutation of a view");
    return own_[i];
  }
  void push_back(T value) {
    FLIGHTNN_DCHECK(!viewing_, "PlanArray: mutation of a view");
    own_.push_back(value);
    rebind();
  }
  // Owns `count` zeroed elements, which the lowering then writes in place
  // through mutable_data().
  void resize(std::size_t count) {
    FLIGHTNN_DCHECK(!viewing_, "PlanArray: mutation of a view");
    own_.resize(count);
    rebind();
  }
  T* mutable_data() {
    FLIGHTNN_CHECK(!viewing_, "PlanArray: mutation of a view");
    return own_.data();
  }

 private:
  void rebind() {
    data_ = own_.data();
    size_ = own_.size();
  }

  bool viewing_ = false;
  const T* data_ = nullptr;
  std::size_t size_ = 0;
  std::vector<T> own_;  // empty in view mode
};

struct CompiledPlan;

struct ShiftPlan {
  // --- SoA entry streams, indexed [filter_begin[f], filter_begin[f+1]) ----
  // The stored form of the weights (the artifact holds exactly these). Each
  // entry's tap into the OIHW filter: input channel, kernel row and kernel
  // column. They give the entry's byte in the dense pack, and ky/kx the
  // analytic op counts.
  // A linear layer is a 1x1 conv, so its entries carry the input feature as
  // `channel` and ky = kx = 0.
  PlanArray<std::int32_t> channel;
  PlanArray<std::int16_t> ky;
  PlanArray<std::int16_t> kx;
  // Barrel-shifter amount (exponent - e_min, in [0, kMaxShift]) and sign
  // (+1/-1; zero-sign elements never make it into a plan).
  PlanArray<std::int8_t> shift;
  PlanArray<std::int8_t> sign;

  // Prefix array over filters: filter f's entries are
  // [filter_begin[f], filter_begin[f+1]); size filters + 1. A pruned filter
  // has an empty range and costs nothing at run time.
  PlanArray<std::int64_t> filter_begin;

  std::int64_t filters = 0;

  [[nodiscard]] std::int64_t entries() const {
    return static_cast<std::int64_t>(shift.size());
  }

  // Lower quantized weights: OIHW [filters, in_channels, K, K], or a linear
  // layer's [filters, in_features], which lowers as in_channels =
  // in_features, kernel = 1. Every weight must be u * 2^e_min with integer
  // |u| <= 128 whose greedy peel (core/decompose.hpp's) takes at most
  // k_max terms. Throws CheckFailure, before building anything, for an
  // exponent window check_plan refuses, k_max < 1 or an empty or malformed
  // shape; then for a weight off that grid (NaN, +-inf, a fraction of
  // 2^e_min, past 128 units) or past k_max terms, naming its filter.
  static CompiledPlan compile_conv(const tensor::Tensor& quantized_weights,
                                   int k_max, const quant::Pow2Config& config);
};

// What compile_conv returns: the plan and its term count Σ_i k_i, the
// single-shift filters Fig. 3 decomposes the layer into (metadata: a
// ProgramOp's term_count, ShiftConv2d::term_count()).
struct CompiledPlan {
  ShiftPlan plan;
  std::int64_t term_count = 0;
};

// Dense int8 form of a conv plan (DESIGN.md §9): each weight rebuilt as
// w = sum of sign * 2^shift over its entries, in units of 2^e_min, four
// input channels per int32 word. The engine builds it when it adopts a plan
// and runs its convolution as u8 x s8 dot products (shift_kernels.hpp), its
// only execution path.
struct DensePack {
  // Words per filter: channel groups (ceil(in_channels / 4)) x kernel x
  // kernel.
  std::int64_t taps = 0;
  // Filters with a non-empty entry range, ascending. A pruned filter
  // (FLightNN's k_i = 0) has no words and costs nothing but its bias.
  std::vector<std::int32_t> filters;
  // [live filter][channel group][ky][kx]: byte i of a word is the int8
  // weight of input channel 4 * group + i (0 past in_channels).
  std::vector<std::int32_t> words;
  // Per live filter: 128 * (sum of its packed weights) mod 2^32, the sum the
  // code offset u = q + 128 adds to its accumulator.
  std::vector<std::int32_t> correction;
  // Per live filter: 1 when its words hold -w (a filter whose weights reach
  // +128 but not -128), so its int32 sum is the negated dot product.
  std::vector<std::uint8_t> negated;
  // [ky][kx]: the plan's entries at each kernel tap, over all filters and
  // channels (empty when every filter is pruned). The census needs nothing
  // else of the plan: an entry's accumulates depend on its tap alone.
  std::vector<std::int64_t> tap_entries;
};

// pack_dense refuses a pack of more words than this per plan entry, so
// adoption allocates in proportion to the plan, not to the geometry it
// claims.
inline constexpr std::int64_t kMaxDenseWordsPerEntry = 4;

// The dense form of a plan check_plan accepted over [in_channels, kernel,
// kernel] filters and config's exponent window: the adoption check of
// everything the kernels and the census assume. Checks each entry before it
// uses it, in the one pass that sums it into its weight. Throws
// CheckFailure, naming the filter and the bound it breaks, when
//  - an entry's sign is not +1 or -1, its shift lies outside [0, e_max -
//    e_min], or its tap outside the filter (channel < in_channels, ky and
//    kx < kernel);
//  - a filter's weights fit int8 neither as they are nor negated (+128
//    beside -128, a LightNN-3 weight of 192 units, a 2^61 term);
//  - 127 x a filter's sum of |w| passes INT32_MAX, so a u8 x s8 sum over
//    8-bit codes could wrap the kernels' int32 accumulator;
//  - the pack's word count overflows or passes kMaxDenseWordsPerEntry
//    words per plan entry.
// A refused pack allocates nothing past O(entries + filters).
DensePack pack_dense(const ShiftPlan& plan, std::int64_t in_channels,
                     std::int64_t kernel, const quant::Pow2Config& config);

// The barrel shifter's budget: a shift, and so the exponent window e_max -
// e_min, is at most 61, which keeps 1 << shift and a sum of two such terms
// inside int64.
inline constexpr int kMaxShift = 61;

// The check of a plan's streams, which the plan-adopting ShiftConv2d
// constructor makes before anything reads them; pack_dense, which it calls
// next, checks every entry and counts the entries per tap that the census
// reads, whoever built the plan (compile_conv, an artifact, a test). Throws
// CheckFailure unless
//  - the exponent window lies in [-126, 127] and spans at most kMaxShift;
//  - the plan covers `filters` filters with at most 2^31 entries, every
//    stream as long as the entry stream;
//  - filter_begin holds filters + 1 values, from 0 to entries(), never
//    decreasing.
void check_plan(const ShiftPlan& plan, std::int64_t filters,
                const quant::Pow2Config& config);

}  // namespace flightnn::inference
