#pragma once

// Compiled execution plan for the shift-add engine. A `core::Decomposition`
// is a faithful record of the quantizer's output: per-term element vectors
// that still contain zero elements (sign == 0) and per-filter term lists
// that may be empty (pruned filters). Walking that record at inference time
// makes the inner loop pay for weights that contribute nothing -- exactly
// the cost the paper's per-filter k_i is supposed to eliminate (Fig. 3).
//
// `ShiftPlan` lowers the decomposition once, at engine construction, into a
// flat structure-of-arrays: one contiguous stream of (channel, ky, kx, shift,
// sign) entries per filter, with every zero element and every pruned filter
// elided. Steady-state kernel work is then exactly proportional to
// Σ_i k_i · nnz_i -- the paper's energy-proportionality, realized in
// software.
//
// Entry order is: filters ascending; within a filter, terms in decomposition
// order; within a term, elements in index order. The order is stable and
// documented, but the engine's correctness does not depend on it: each
// output accumulator receives the same multiset of integer addends as the
// reference term-walk, and int64 addition is associative and commutative, so
// any regrouping produces bit-identical results (DESIGN.md §9).

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/decompose.hpp"
#include "quant/pow2.hpp"
#include "support/check.hpp"

namespace flightnn::inference {

// Own-or-view array for the plan's SoA streams. A plan built by compile_conv
// owns its storage (push_back during lowering); a plan fixed up from a
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

  // --- owning-mode mutation (compile-time lowering only) -------------------
  T& operator[](std::size_t i) {
    FLIGHTNN_DCHECK(!viewing_, "PlanArray: mutation of a view");
    return own_[i];
  }
  void push_back(T value) {
    FLIGHTNN_DCHECK(!viewing_, "PlanArray: mutation of a view");
    own_.push_back(value);
    rebind();
  }
  void reserve(std::size_t count) {
    FLIGHTNN_DCHECK(!viewing_, "PlanArray: mutation of a view");
    own_.reserve(count);
  }
  void assign(std::size_t count, T value) {
    FLIGHTNN_DCHECK(!viewing_, "PlanArray: mutation of a view");
    own_.assign(count, value);
    rebind();
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

struct ShiftPlan {
  // --- Core SoA entry streams, indexed [filter_begin[f], filter_begin[f+1]) -
  // The stored form of the weights (the artifact holds exactly these). Each
  // entry's tap into the OIHW filter: input channel, kernel row and kernel
  // column. They give the entry's offset into the engine's padded,
  // stride-phased input plane (rebuilt per call, since it depends on the
  // input size), and ky/kx the analytic op counts. A linear layer is a 1x1
  // conv, so its entries carry the input feature as `channel` and ky = kx = 0.
  PlanArray<std::int32_t> channel;
  PlanArray<std::int16_t> ky;
  PlanArray<std::int16_t> kx;
  // Barrel-shifter amount (exponent - e_min, always >= 0) and sign (+1/-1;
  // zero-sign elements never make it into a plan).
  PlanArray<std::int8_t> shift;
  PlanArray<std::int8_t> sign;

  // Prefix array over filters: filter f's entries are
  // [filter_begin[f], filter_begin[f+1]); size filters + 1. A pruned filter
  // has an empty range and costs nothing at run time.
  PlanArray<std::int64_t> filter_begin;

  // --- Derived streams (DESIGN.md §9, §14) --------------------------------
  // Built by derive_streams() from the core streams when an engine adopts
  // the plan; always owned, never serialized. An artifact-adopted plan keeps
  // its core streams as zero-copy views into the mapping.
  //
  // Per-filter worst-case accumulator gain: sum of 2^shift over the filter's
  // entries, saturated at the accumulator guard. |accumulator| <= max|q| *
  // filter_gain[f] bounds every intermediate partial sum, enabling one
  // overflow check per filter instead of per accumulate.
  PlanArray<std::int64_t> filter_gain;
  // mult[e] = sign[e] * 2^shift[e] as int32: the exact per-entry multiplier
  // both narrow (int32) kernel tiers use. Entries with shift > 30 store 0;
  // they are unreachable, because such a filter's gain already exceeds the
  // int32 bound and the engine takes the int64 scalar loop before reading
  // mult.
  PlanArray<std::int32_t> mult;

  std::int64_t filters = 0;

  // Derive filter_gain and mult from the core streams. The plan-adopting
  // engine constructor calls it, for compiled and loaded plans alike. Total
  // on any plan whose filter_begin has filters + 1 entries: spans outside
  // the entry stream count as empty, and a shift outside the barrel range
  // saturates its filter's gain (so the narrow gate refuses the filter) and
  // stores mult 0, so even a hostile hand-built plan cannot make it index
  // wild.
  void derive_streams();

  [[nodiscard]] std::int64_t entries() const {
    return static_cast<std::int64_t>(shift.size());
  }

  // Lower a conv decomposition (OIHW weights [filters, in_channels, K, K]).
  // A linear layer [filters, in_features] lowers as in_channels =
  // in_features, kernel = 1.
  static ShiftPlan compile_conv(const core::Decomposition& decomposition,
                                const quant::Pow2Config& config,
                                std::int64_t in_channels, std::int64_t kernel);
};

// Saturation ceiling shared with the engine's overflow contract.
inline constexpr std::int64_t kShiftAccumulatorGuard = std::int64_t{1} << 62;

}  // namespace flightnn::inference
