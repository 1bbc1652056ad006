#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "tensor/buffer_pool.hpp"

namespace flightnn::tensor {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(TensorTest, FillConstructor) {
  Tensor t(Shape{4}, 2.5F);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5F);
}

TEST(TensorTest, DataConstructorValidatesSize) {
  EXPECT_THROW(Tensor(Shape{3}, std::vector<float>{1.0F, 2.0F}),
               std::invalid_argument);
  Tensor ok(Shape{2}, std::vector<float>{1.0F, 2.0F});
  EXPECT_EQ(ok[1], 2.0F);
}

TEST(TensorTest, MultiIndexAccess) {
  Tensor t(Shape{2, 2});
  t.at({1, 0}) = 7.0F;
  EXPECT_EQ(t[2], 7.0F);
  const Tensor& ct = t;
  EXPECT_EQ(ct.at({1, 0}), 7.0F);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t(Shape{2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(r[i], t[i]);
  EXPECT_THROW((void)t.reshaped(Shape{5}), std::invalid_argument);
}

TEST(TensorTest, InPlaceArithmetic) {
  Tensor a(Shape{3}, std::vector<float>{1, 2, 3});
  Tensor b(Shape{3}, std::vector<float>{10, 20, 30});
  a += b;
  EXPECT_EQ(a[2], 33.0F);
  a -= b;
  EXPECT_EQ(a[2], 3.0F);
  a *= 2.0F;
  EXPECT_EQ(a[0], 2.0F);
}

TEST(TensorTest, ShapeMismatchThrows) {
  Tensor a(Shape{3});
  Tensor b(Shape{4});
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW(a.add_scaled(b, 1.0F), std::invalid_argument);
}

TEST(TensorTest, AddScaled) {
  Tensor a(Shape{2}, std::vector<float>{1, 1});
  Tensor b(Shape{2}, std::vector<float>{2, 4});
  a.add_scaled(b, -0.5F);
  EXPECT_EQ(a[0], 0.0F);
  EXPECT_EQ(a[1], -1.0F);
}

TEST(TensorTest, Reductions) {
  Tensor t(Shape{4}, std::vector<float>{-3, 1, 2, -0.5F});
  EXPECT_FLOAT_EQ(t.sum(), -0.5F);
  EXPECT_FLOAT_EQ(t.min(), -3.0F);
  EXPECT_FLOAT_EQ(t.max(), 2.0F);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.0F);
  EXPECT_NEAR(t.l2_norm(), std::sqrt(9.0 + 1.0 + 4.0 + 0.25), 1e-6);
}

TEST(TensorTest, EmptyReductionsThrow) {
  Tensor t(Shape{0});
  EXPECT_THROW((void)t.min(), std::logic_error);
  EXPECT_THROW((void)t.max(), std::logic_error);
}

TEST(TensorTest, RandnStatistics) {
  support::Rng rng(5);
  Tensor t = Tensor::randn(Shape{10000}, rng, 1.0F, 2.0F);
  double sum = 0.0, sum_sq = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    sum += t[i];
    sum_sq += static_cast<double>(t[i]) * t[i];
  }
  const double mean = sum / 10000.0;
  const double var = sum_sq / 10000.0 - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(TensorTest, RandUniformBounds) {
  support::Rng rng(6);
  Tensor t = Tensor::rand_uniform(Shape{1000}, rng, -2.0F, 3.0F);
  EXPECT_GE(t.min(), -2.0F);
  EXPECT_LT(t.max(), 3.0F);
}

TEST(TensorTest, OutOfPlaceOperators) {
  Tensor a(Shape{2}, std::vector<float>{1, 2});
  Tensor b(Shape{2}, std::vector<float>{3, 4});
  Tensor c = a + b;
  EXPECT_EQ(c[0], 4.0F);
  Tensor d = b - a;
  EXPECT_EQ(d[1], 2.0F);
  Tensor e = a * 3.0F;
  EXPECT_EQ(e[1], 6.0F);
  // Originals untouched.
  EXPECT_EQ(a[0], 1.0F);
  EXPECT_EQ(b[0], 3.0F);
}

TEST(TensorTest, MaxAbsDiff) {
  Tensor a(Shape{3}, std::vector<float>{1, 2, 3});
  Tensor b(Shape{3}, std::vector<float>{1, 2.5F, 2});
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 1.0F);
  Tensor c(Shape{2});
  EXPECT_THROW((void)max_abs_diff(a, c), std::invalid_argument);
}

TEST(TensorTest, CopyIsDeep) {
  Tensor a(Shape{2}, std::vector<float>{1, 2});
  Tensor b = a;
  b[0] = 99.0F;
  EXPECT_EQ(a[0], 1.0F);
}

// One-way traffic between threads: every buffer acquired on one thread is
// released on another (a serving client freeing logits the batcher made).
// The releasing thread's pool keeps kMaxPooledPerSize of them and frees the
// rest, however small they are.
TEST(BufferPoolTest, CrossThreadReleasesPastTheCountCapAreFreed) {
  constexpr std::size_t kNumel = 10;
  constexpr std::size_t kExtra = 44;
  std::vector<std::vector<float>> buffers;
  for (std::size_t i = 0; i < pool::kMaxPooledPerSize + kExtra; ++i) {
    buffers.push_back(pool::acquire(kNumel));
  }
  pool::Stats released;
  std::thread releaser([&] {
    // A thread's pool comes up on first use; releases before that are freed.
    pool::trim();
    for (auto& buffer : buffers) pool::release(std::move(buffer));
    released = pool::stats();
  });
  releaser.join();
  EXPECT_EQ(released.releases, pool::kMaxPooledPerSize + kExtra);
  EXPECT_EQ(released.cached_bytes,
            pool::kMaxPooledPerSize * kNumel * sizeof(float));
}

}  // namespace
}  // namespace flightnn::tensor
