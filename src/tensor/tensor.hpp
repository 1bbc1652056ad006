#pragma once

// Dense row-major float32 tensor. This is the single numeric container used
// throughout the library: activations (NCHW), convolution weights (OIHW),
// gradients and optimizer state all use it. The type has value semantics;
// copies are deep.
//
// Storage is acquired from and returned to a per-thread buffer pool
// (tensor/buffer_pool.hpp), so repeat workloads that churn through the same
// tensor sizes — batched inference in particular — reach a steady state where
// constructing and destroying tensors performs no heap allocation.

#include <cstdint>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/shape.hpp"

namespace flightnn::tensor {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);                   // zero-filled
  Tensor(Shape shape, float fill);
  Tensor(Shape shape, std::vector<float> data);   // takes ownership

  // Storage round-trips through the per-thread buffer pool: copies acquire a
  // pooled buffer, destruction and move-assignment release the old one.
  ~Tensor();
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  // Pool-backed storage with unspecified contents; for outputs every element
  // of which is about to be overwritten (skips the zero-fill pass).
  static Tensor uninitialized(Shape shape);
  static Tensor full(Shape shape, float value) { return Tensor(std::move(shape), value); }
  // I.i.d. N(mean, stddev^2) entries.
  static Tensor randn(Shape shape, support::Rng& rng, float mean = 0.0F,
                      float stddev = 1.0F);
  // I.i.d. U[lo, hi) entries.
  static Tensor rand_uniform(Shape shape, support::Rng& rng, float lo, float hi);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  float& operator[](std::int64_t i) {
    FLIGHTNN_DCHECK(i >= 0 && i < numel(), "Tensor::operator[]: index ", i,
                    " out of range for numel ", numel());
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](std::int64_t i) const {
    FLIGHTNN_DCHECK(i >= 0 && i < numel(), "Tensor::operator[]: index ", i,
                    " out of range for numel ", numel());
    return data_[static_cast<std::size_t>(i)];
  }

  // Multi-index access (bounds-checked through Shape::offset in debug).
  float& at(const std::vector<std::int64_t>& index) { return data_[static_cast<std::size_t>(shape_.offset(index))]; }
  [[nodiscard]] float at(const std::vector<std::int64_t>& index) const {
    return data_[static_cast<std::size_t>(shape_.offset(index))];
  }

  // A copy with a new shape of equal numel (a pooled deep copy).
  [[nodiscard]] Tensor reshaped(Shape new_shape) const;
  // Give this tensor a new shape of equal numel, in place (no data movement).
  void reshape(Shape new_shape);

  void fill(float value);

  // In-place arithmetic; shapes must match exactly for the tensor variants.
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float scalar);

  // this += scale * other (axpy), the workhorse of optimizer updates.
  void add_scaled(const Tensor& other, float scale);

  // Reductions.
  [[nodiscard]] float sum() const;
  [[nodiscard]] float min() const;   // requires non-empty
  [[nodiscard]] float max() const;   // requires non-empty
  [[nodiscard]] float abs_max() const;
  [[nodiscard]] double l2_norm() const;

  [[nodiscard]] const std::vector<float>& storage() const { return data_; }

 private:
  Shape shape_;
  std::vector<float> data_;
};

// Out-of-place helpers.
Tensor operator+(Tensor lhs, const Tensor& rhs);
Tensor operator-(Tensor lhs, const Tensor& rhs);
Tensor operator*(Tensor lhs, float scalar);

// Max absolute element-wise difference; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace flightnn::tensor
