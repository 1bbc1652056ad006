#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
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

// Buffers acquired on a thread of their own, which exits, so the thread
// that releases them is the only pool that sees them again.
std::vector<std::vector<float>> foreign_buffers(std::size_t n,
                                                std::size_t count) {
  std::vector<std::vector<float>> buffers;
  std::thread maker([&] {
    for (std::size_t i = 0; i < count; ++i) buffers.push_back(pool::acquire(n));
  });
  maker.join();
  return buffers;
}

// One-way traffic between threads (a serving client freeing the logits the
// batcher made, the batcher freeing the images a client made): a thread
// that never acquired the size parks none of them, however many arrive --
// more here than the 256 per size a count cap once kept.
TEST(BufferPoolTest, ForeignReleasesOfASizeNeverAcquiredAreFreed) {
  constexpr std::size_t kNumel = 10;
  constexpr std::size_t kBuffers = 300;
  auto buffers = foreign_buffers(kNumel, kBuffers);
  pool::Stats released;
  std::thread releaser([&] {
    // A thread's pool comes up on first use; releases before that are freed.
    pool::trim();
    for (auto& buffer : buffers) pool::release(std::move(buffer));
    released = pool::stats();
  });
  releaser.join();
  EXPECT_EQ(released.releases, kBuffers);
  EXPECT_EQ(released.cached_bytes, 0U);
}

// A thread parks at most the most it has had out at once, whichever
// buffers come back first: its own or other threads'.
TEST(BufferPoolTest, AThreadParksAtMostWhatItHadOut) {
  constexpr std::size_t kNumel = 24;
  constexpr std::size_t kOut = 5;
  constexpr std::size_t kBytes = kOut * kNumel * sizeof(float);
  for (const bool own_first : {false, true}) {
    auto foreign = foreign_buffers(kNumel, 40);
    std::size_t cached_after_first = 0;
    pool::Stats after;
    std::thread worker([&] {
      pool::trim();
      std::vector<std::vector<float>> own;
      for (std::size_t i = 0; i < kOut; ++i) {
        own.push_back(pool::acquire(kNumel));
      }
      auto& first = own_first ? own : foreign;
      auto& second = own_first ? foreign : own;
      for (auto& buffer : first) pool::release(std::move(buffer));
      cached_after_first = pool::stats().cached_bytes;
      for (auto& buffer : second) pool::release(std::move(buffer));
      // The parked buffers serve the thread's next kOut acquires.
      for (std::size_t i = 0; i < kOut; ++i) {
        own.push_back(pool::acquire(kNumel));
      }
      after = pool::stats();
    });
    worker.join();
    EXPECT_EQ(cached_after_first, kBytes) << "own first: " << own_first;
    EXPECT_EQ(after.releases, kOut + 40) << "own first: " << own_first;
    EXPECT_EQ(after.hits, kOut) << "own first: " << own_first;
    EXPECT_EQ(after.cached_bytes, 0U) << "own first: " << own_first;
  }
}

// BatchRunner::run_images when images change workers between batches: each
// thread releases the buffer another thread acquired last round, then
// acquires its own. A prewarm counts as demand, so from the first round on
// every acquire hits the free list, and neither pool grows past one buffer.
TEST(BufferPoolTest, ReleaseBeforeAcquireAcrossThreadsHitsTheList) {
  constexpr std::size_t kNumel = 10;
  constexpr int kRounds = 300;
  std::vector<float> slot[2];
  pool::Stats stats[2];
  std::size_t most_cached[2] = {0, 0};
  std::barrier sync(2);
  const auto worker = [&](int t) {
    pool::prewarm(kNumel, 1);
    for (int r = 0; r < kRounds; ++r) {
      sync.arrive_and_wait();  // both slots hold last round's buffers
      std::vector<float> other = std::move(slot[1 - t]);
      sync.arrive_and_wait();  // both threads have taken the other's
      pool::release(std::move(other));
      most_cached[t] = std::max(most_cached[t], pool::stats().cached_bytes);
      slot[t] = pool::acquire(kNumel);
    }
    stats[t] = pool::stats();
  };
  std::thread first(worker, 0);
  std::thread second(worker, 1);
  first.join();
  second.join();
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(stats[t].acquires, static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(stats[t].hits, stats[t].acquires) << "thread " << t;
    EXPECT_EQ(most_cached[t], kNumel * sizeof(float)) << "thread " << t;
  }
}

}  // namespace
}  // namespace flightnn::tensor
