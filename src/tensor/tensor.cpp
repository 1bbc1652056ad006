#include "tensor/tensor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "support/check.hpp"
#include "support/simd.hpp"
#include "tensor/buffer_pool.hpp"

namespace flightnn::tensor {

Tensor::Tensor(Shape shape)
    : shape_(shape), data_(pool::acquire(static_cast<std::size_t>(shape_.numel()))) {
  std::fill(data_.begin(), data_.end(), 0.0F);
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(shape), data_(pool::acquire(static_cast<std::size_t>(shape_.numel()))) {
  std::fill(data_.begin(), data_.end(), fill);
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  FLIGHTNN_CHECK(static_cast<std::int64_t>(data_.size()) == shape_.numel(),
                 "Tensor: data size ", data_.size(),
                 " does not match shape ", shape_.to_string());
}

Tensor::~Tensor() { pool::release(std::move(data_)); }

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), data_(pool::acquire(other.data_.size())) {
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  if (data_.size() != other.data_.size()) {
    pool::release(std::move(data_));
    data_ = pool::acquire(other.data_.size());
  }
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(other.shape_), data_(std::move(other.data_)) {
  other.shape_ = Shape();
  other.data_.clear();
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  pool::release(std::move(data_));
  shape_ = other.shape_;
  data_ = std::move(other.data_);
  other.shape_ = Shape();
  other.data_.clear();
  return *this;
}

Tensor Tensor::uninitialized(Shape shape) {
  const auto n = static_cast<std::size_t>(shape.numel());
  return Tensor(std::move(shape), pool::acquire(n));
}

Tensor Tensor::randn(Shape shape, support::Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, support::Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::reshaped(Shape new_shape) const {
  Tensor t(*this);  // pooled deep copy
  t.reshape(std::move(new_shape));
  return t;
}

void Tensor::reshape(Shape new_shape) {
  FLIGHTNN_CHECK(new_shape.numel() == shape_.numel(),
                 "Tensor::reshape: numel mismatch ", shape_.to_string(), " -> ",
                 new_shape.to_string());
  shape_ = std::move(new_shape);
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor& Tensor::operator+=(const Tensor& other) {
  FLIGHTNN_CHECK_SHAPE(shape(), other.shape(), "Tensor::operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  FLIGHTNN_CHECK_SHAPE(shape(), other.shape(), "Tensor::operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

void Tensor::add_scaled(const Tensor& other, float scale) {
  FLIGHTNN_CHECK_SHAPE(shape(), other.shape(), "Tensor::add_scaled");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
}

float Tensor::sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::min() const {
  FLIGHTNN_CHECK(!data_.empty(), "Tensor::min on empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  FLIGHTNN_CHECK(!data_.empty(), "Tensor::max on empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

namespace {

// For non-negative IEEE-754 floats, the value ordering equals the ordering
// of the bit patterns as unsigned integers, so |.|-max reduces over
// `bits & 0x7FFFFFFF` as an integer max -- which the autovectorizer
// handles without the FP max/NaN semantics concerns that keep the float
// formulation scalar. Every activation quantizer calls this per forward.
FLIGHTNN_SIMD_CLONES
std::uint32_t abs_max_bits(const float* p, std::int64_t n) {
  std::uint32_t m = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    m = std::max(m, std::bit_cast<std::uint32_t>(p[i]) & 0x7FFFFFFFU);
  }
  return m;
}

}  // namespace

float Tensor::abs_max() const {
  return std::bit_cast<float>(
      abs_max_bits(data_.data(), static_cast<std::int64_t>(data_.size())));
}

double Tensor::l2_norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

Tensor operator+(Tensor lhs, const Tensor& rhs) {
  lhs += rhs;
  return lhs;
}

Tensor operator-(Tensor lhs, const Tensor& rhs) {
  lhs -= rhs;
  return lhs;
}

Tensor operator*(Tensor lhs, float scalar) {
  lhs *= scalar;
  return lhs;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  FLIGHTNN_CHECK_SHAPE(a.shape(), b.shape(), "max_abs_diff");
  float m = 0.0F;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

}  // namespace flightnn::tensor
