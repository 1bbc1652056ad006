#pragma once

// Shared little-endian byte-stream helpers for the serialization formats
// (checkpoints and deployment artifacts). One hardened reader/writer pair
// instead of per-format copies: the reader's bounds arithmetic is
// overflow-proof (a hostile length near SIZE_MAX cannot wrap past the end),
// and every format's length fields are clamped against remaining() before
// any allocation, so a kilobyte file can never request a multi-gigabyte
// vector.

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace flightnn::serialize {

class ByteWriter {
 public:
  void bytes(const void* data, std::size_t count) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), p, p + count);
  }
  void u32(std::uint32_t value) { bytes(&value, sizeof(value)); }
  void u64(std::uint64_t value) { bytes(&value, sizeof(value)); }
  void i64(std::int64_t value) { bytes(&value, sizeof(value)); }
  void f32(float value) { bytes(&value, sizeof(value)); }
  void floats(const float* data, std::int64_t count) {
    bytes(data, static_cast<std::size_t>(count) * sizeof(float));
  }
  void reserve(std::size_t capacity) { buffer_.reserve(capacity); }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buffer)
      : ByteReader(buffer.data(), buffer.size()) {}

  void bytes(void* out, std::size_t count) {
    // Overflow-proof form of `cursor_ + count > size_`: a hostile length
    // near SIZE_MAX must not wrap the sum and slip past the bound.
    if (count > size_ - cursor_) {
      throw std::runtime_error("serialize: truncated buffer");
    }
    if (count == 0) return;  // `out` may be an empty vector's null data()
    std::memcpy(out, data_ + cursor_, count);
    cursor_ += count;
  }
  std::uint32_t u32() {
    std::uint32_t value = 0;
    bytes(&value, sizeof(value));
    return value;
  }
  std::uint64_t u64() {
    std::uint64_t value = 0;
    bytes(&value, sizeof(value));
    return value;
  }
  std::int64_t i64() {
    std::int64_t value = 0;
    bytes(&value, sizeof(value));
    return value;
  }
  float f32() {
    float value = 0;
    bytes(&value, sizeof(value));
    return value;
  }
  void floats(float* out, std::int64_t count) {
    bytes(out, static_cast<std::size_t>(count) * sizeof(float));
  }
  [[nodiscard]] bool exhausted() const { return cursor_ == size_; }
  // Bytes left to read. Length fields parsed from the buffer are clamped
  // against this before any resize: a count can never describe more payload
  // than the buffer still holds.
  [[nodiscard]] std::size_t remaining() const { return size_ - cursor_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

}  // namespace flightnn::serialize
