// Differential test: every parallelized forward path must produce outputs
// BIT-IDENTICAL to serial execution, for 1, 2, 4 and 7 (non-power-of-two)
// threads, including odd batch sizes and batch < thread count. The integer
// shift-add engine partitions by output filter (integer accumulation has no
// reduction-order ambiguity) and the float layers partition by output
// element, so there is no tolerance here -- memcmp must agree.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/quantize_model.hpp"
#include "inference/quantized_network.hpp"
#include "inference/shift_engine.hpp"
#include "models/networks.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "quant/lightnn.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "runtime/thread_pool.hpp"
#include "support/rng.hpp"
#include "term_walk_oracle.hpp"

namespace flightnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr int kThreadCounts[] = {2, 4, 7};

void expect_bitwise_equal(const Tensor& expected, const Tensor& actual,
                          const char* what, int threads) {
  ASSERT_EQ(expected.shape(), actual.shape()) << what << " @" << threads;
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        static_cast<std::size_t>(expected.numel()) *
                            sizeof(float)),
            0)
      << what << ": output differs from serial at " << threads << " threads";
}

// Run `fn` serially, then at each parallel thread count, asserting bitwise
// agreement. Restores the serial default afterwards.
template <typename Fn>
void check_thread_invariance(const char* what, Fn&& fn) {
  runtime::set_num_threads(1);
  const Tensor reference = fn();
  for (const int threads : kThreadCounts) {
    runtime::set_num_threads(threads);
    expect_bitwise_equal(reference, fn(), what, threads);
  }
  runtime::set_num_threads(1);
}

class ConvBatchSizes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ConvBatchSizes, Conv2dForwardBitIdentical) {
  const std::int64_t batch = GetParam();
  support::Rng rng(11);
  nn::Conv2d conv(3, 8, 3, 1, 1, /*with_bias=*/true, rng);
  Tensor x = Tensor::randn(Shape{batch, 3, 10, 10}, rng);
  check_thread_invariance("conv2d", [&] { return conv.forward(x, false); });
}

TEST_P(ConvBatchSizes, StridedConv2dForwardBitIdentical) {
  const std::int64_t batch = GetParam();
  support::Rng rng(12);
  nn::Conv2d conv(4, 6, 3, 2, 0, /*with_bias=*/false, rng);
  Tensor x = Tensor::randn(Shape{batch, 4, 9, 9}, rng);
  check_thread_invariance("conv2d_strided",
                          [&] { return conv.forward(x, false); });
}

TEST_P(ConvBatchSizes, LinearForwardBitIdentical) {
  const std::int64_t batch = GetParam();
  support::Rng rng(13);
  nn::Linear lin(17, 9, /*with_bias=*/true, rng);
  Tensor x = Tensor::randn(Shape{batch, 17}, rng);
  check_thread_invariance("linear", [&] { return lin.forward(x, false); });
}

TEST_P(ConvBatchSizes, MaxPoolForwardBitIdentical) {
  const std::int64_t batch = GetParam();
  support::Rng rng(14);
  nn::MaxPool2d pool(2, 2);
  Tensor x = Tensor::randn(Shape{batch, 5, 8, 8}, rng);
  check_thread_invariance("maxpool", [&] { return pool.forward(x, false); });
}

TEST_P(ConvBatchSizes, GlobalAvgPoolForwardBitIdentical) {
  const std::int64_t batch = GetParam();
  support::Rng rng(15);
  nn::GlobalAvgPool gap;
  Tensor x = Tensor::randn(Shape{batch, 5, 6, 6}, rng);
  check_thread_invariance("gap", [&] { return gap.forward(x, false); });
}

// Batch 1, odd batch 3, and 5 (< the 7-thread configuration).
INSTANTIATE_TEST_SUITE_P(OddBatches, ConvBatchSizes,
                         ::testing::Values<std::int64_t>(1, 3, 5));

TEST(ParallelConsistencyTest, ShiftConv2dBitIdentical) {
  support::Rng rng(21);
  const quant::Pow2Config config;
  Tensor w = Tensor::randn(Shape{16, 6, 3, 3}, rng, 0.0F, 0.3F);
  Tensor wq = quant::quantize_lightnn(w, 2, config);
  Tensor bias = Tensor::randn(Shape{16}, rng);
  inference::ShiftConv2d engine(wq, 2, config, 1, 1, bias);
  Tensor img = Tensor::randn(Shape{6, 12, 12}, rng);
  const auto q = inference::quantize_image(img, 8);
  check_thread_invariance("shift_conv", [&] { return engine.run(q); });
  // The cost hint runs the layer above on one thread. This one is large
  // enough (~37 us of dense blocks) that it splits its filter blocks across
  // the pool.
  Tensor big_w = Tensor::randn(Shape{36, 16, 3, 3}, rng, 0.0F, 0.3F);
  const inference::ShiftConv2d big(quant::quantize_lightnn(big_w, 2, config),
                                   2, config, 1, 1);
  const Tensor big_img = Tensor::randn(Shape{16, 24, 24}, rng);
  const auto big_q = inference::quantize_image(big_img, 8);
  check_thread_invariance("dense split", [&] { return big.run(big_q); });
}

TEST(ParallelConsistencyTest, LinearAsOneByOneConvBitIdentical) {
  support::Rng rng(22);
  const quant::Pow2Config config;
  Tensor w = Tensor::randn(Shape{10, 48}, rng, 0.0F, 0.3F);
  Tensor wq = quant::quantize_lightnn(w, 2, config);
  Tensor bias = Tensor::randn(Shape{10}, rng);
  // A linear layer runs as a 1x1 conv over the [48, 1, 1] plane.
  const inference::ShiftConv2d engine =
      inference::oracle::linear_engine(wq, 2, config, bias);
  Tensor x = Tensor::randn(Shape{48}, rng);
  const auto q = inference::quantize_image(x.reshaped(Shape{48, 1, 1}), 8);
  check_thread_invariance("shift_linear", [&] {
    return inference::oracle::run_linear(engine, q);
  });
}

// Full Table-1-style network through the compiled integer plan, run via
// BatchRunner at every thread count, for odd batch sizes including
// batch < thread count.
class NetworkBatchSizes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(NetworkBatchSizes, QuantizedNetworkBatchBitIdentical) {
  const std::int64_t batch = GetParam();
  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = 0.125F;
  build.seed = 31;
  auto model = models::build_network(models::table1_network(1), build);
  core::install_lightnn(*model, 2);
  runtime::set_num_threads(1);
  const auto network = inference::QuantizedNetwork::compile(
      *model, Shape{1, 3, 16, 16});
  const runtime::BatchRunner runner(network);

  support::Rng rng(32);
  runtime::InferenceRequest request;
  request.id = 77;
  request.images.reserve(static_cast<std::size_t>(batch));
  for (std::int64_t i = 0; i < batch; ++i) {
    request.images.push_back(Tensor::randn(Shape{3, 16, 16}, rng));
  }

  const runtime::InferenceResult serial = runner.run(request);
  ASSERT_EQ(serial.logits.size(), request.images.size());
  ASSERT_EQ(serial.argmax.size(), request.images.size());
  EXPECT_EQ(serial.id, 77u);
  EXPECT_EQ(serial.counts.images, batch);
  EXPECT_EQ(serial.timing.batch_size, batch);
  EXPECT_EQ(serial.timing.queue_seconds, 0.0);

  for (const int threads : kThreadCounts) {
    runtime::set_num_threads(threads);
    const runtime::InferenceResult parallel = runner.run(request);
    ASSERT_EQ(parallel.logits.size(), serial.logits.size());
    for (std::size_t i = 0; i < serial.logits.size(); ++i) {
      expect_bitwise_equal(serial.logits[i], parallel.logits[i],
                           "network logits", threads);
    }
    EXPECT_EQ(parallel.argmax, serial.argmax);
    EXPECT_EQ(parallel.counts.shifts, serial.counts.shifts);
    EXPECT_EQ(parallel.counts.adds, serial.counts.adds);
    EXPECT_EQ(parallel.counts.images, serial.counts.images);
  }
  runtime::set_num_threads(1);
}

INSTANTIATE_TEST_SUITE_P(OddBatches, NetworkBatchSizes,
                         ::testing::Values<std::int64_t>(1, 3));

TEST(ParallelConsistencyTest, NchwRequestMatchesPerImageRuns) {
  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = 0.125F;
  build.seed = 41;
  auto model = models::build_network(models::table1_network(1), build);
  core::install_lightnn(*model, 1);
  runtime::set_num_threads(1);
  const auto network = inference::QuantizedNetwork::compile(
      *model, Shape{1, 3, 16, 16});
  const runtime::BatchRunner runner(network);

  support::Rng rng(42);
  Tensor batch = Tensor::randn(Shape{3, 3, 16, 16}, rng);
  runtime::set_num_threads(4);
  const runtime::InferenceResult from_tensor =
      runner.run(runtime::InferenceRequest::from_nchw(batch));
  runtime::set_num_threads(1);
  ASSERT_EQ(from_tensor.logits.size(), 3u);
  for (std::int64_t i = 0; i < 3; ++i) {
    Tensor image(Shape{3, 16, 16});
    std::memcpy(image.data(), batch.data() + i * 3 * 16 * 16,
                sizeof(float) * 3 * 16 * 16);
    const Tensor expected = network.run(image);
    expect_bitwise_equal(expected, from_tensor.logits[static_cast<std::size_t>(i)],
                         "batch overload", 4);
  }
}

}  // namespace
}  // namespace flightnn
