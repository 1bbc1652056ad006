// Seeded randomized stress test for the batched inference runtime: several
// client threads hammer one BatchRunner (shared immutable weights) with
// concurrent randomized requests while the kernels inside each request
// parallelize on the shared pool. Run under the `debug-tsan` preset this is
// the data-race gate for the whole runtime; in any build it also checks that
// every concurrent result is bit-identical to the serial reference.
//
// RNG conventions follow tests/properties_test.cpp: every stochastic site
// takes an explicit seed, derived per-thread so runs are reproducible.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/quantize_model.hpp"
#include "data/dataset.hpp"
#include "inference/quantized_network.hpp"
#include "models/networks.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "runtime/thread_pool.hpp"
#include "support/rng.hpp"

namespace flightnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::uint64_t kBaseSeed = 7000;
constexpr int kClientThreads = 4;
constexpr int kRequestsPerClient = 3;
constexpr std::int64_t kMaxBatch = 5;

runtime::InferenceRequest random_request(std::uint64_t seed,
                                         std::int64_t batch) {
  support::Rng rng(seed);
  runtime::InferenceRequest request;
  request.id = seed;
  request.images.reserve(static_cast<std::size_t>(batch));
  for (std::int64_t i = 0; i < batch; ++i) {
    request.images.push_back(Tensor::randn(Shape{3, 12, 12}, rng));
  }
  return request;
}

TEST(RuntimeStressTest, ConcurrentBatchRunnersOverSharedWeights) {
  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = 0.125F;
  build.seed = kBaseSeed;
  auto model = models::build_network(models::table1_network(1), build);
  core::install_lightnn(*model, 2);

  runtime::set_num_threads(1);
  const auto network =
      inference::QuantizedNetwork::compile(*model, Shape{1, 3, 12, 12});
  const runtime::BatchRunner runner(network);

  // Serial references, computed before any concurrency starts. Request r of
  // client t uses batch size (t + r) % kMaxBatch + 1 -- odd sizes included.
  std::vector<std::vector<Tensor>> reference(
      static_cast<std::size_t>(kClientThreads * kRequestsPerClient));
  for (int t = 0; t < kClientThreads; ++t) {
    for (int r = 0; r < kRequestsPerClient; ++r) {
      const std::uint64_t seed =
          kBaseSeed + static_cast<std::uint64_t>(t * 100 + r);
      const std::int64_t batch = (t + r) % kMaxBatch + 1;
      const auto result = runner.run(random_request(seed, batch));
      reference[static_cast<std::size_t>(t * kRequestsPerClient + r)] =
          result.logits;
    }
  }

  // Hammer: every client thread issues its requests concurrently while the
  // pool parallelizes inside each forward pass (nested parallelism).
  runtime::set_num_threads(4);
  std::vector<std::vector<std::vector<Tensor>>> results(
      static_cast<std::size_t>(kClientThreads));
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      auto& mine = results[static_cast<std::size_t>(t)];
      mine.resize(kRequestsPerClient);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const std::uint64_t seed =
            kBaseSeed + static_cast<std::uint64_t>(t * 100 + r);
        const std::int64_t batch = (t + r) % kMaxBatch + 1;
        mine[static_cast<std::size_t>(r)] =
            runner.run(random_request(seed, batch)).logits;
      }
    });
  }
  for (auto& client : clients) client.join();
  runtime::set_num_threads(1);

  for (int t = 0; t < kClientThreads; ++t) {
    for (int r = 0; r < kRequestsPerClient; ++r) {
      const auto& expected =
          reference[static_cast<std::size_t>(t * kRequestsPerClient + r)];
      const auto& actual =
          results[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)];
      ASSERT_EQ(expected.size(), actual.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(expected[i].shape(), actual[i].shape());
        EXPECT_EQ(std::memcmp(expected[i].data(), actual[i].data(),
                              static_cast<std::size_t>(expected[i].numel()) *
                                  sizeof(float)),
                  0)
            << "client " << t << " request " << r << " image " << i;
      }
    }
  }
}

// 2-4 threads make the first run() of a cold runner at once; a fresh runner
// per round, the same caller threads in every round. The first to set the
// runner's latch warms every pool thread through for_each_thread while the
// others run unwarmed beside it; no call may hang, and every one returns
// the serial logits.
TEST(RuntimeStressTest, ConcurrentFirstRunsOfAColdRunner) {
  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = 0.125F;
  build.seed = kBaseSeed;
  auto model = models::build_network(models::table1_network(1), build);
  core::install_lightnn(*model, 2);

  runtime::set_num_threads(1);
  const auto network =
      inference::QuantizedNetwork::compile(*model, Shape{1, 3, 12, 12});
  const runtime::InferenceRequest request = random_request(kBaseSeed + 900, 2);
  const std::vector<Tensor> reference =
      runtime::BatchRunner(network).run(request).logits;

  constexpr int kRounds = 20;
  runtime::set_num_threads(4);
  for (int callers = 2; callers <= 4; ++callers) {
    std::vector<std::unique_ptr<runtime::BatchRunner>> runners;
    for (int r = 0; r < kRounds; ++r) {
      runners.push_back(std::make_unique<runtime::BatchRunner>(network));
    }
    // logits[r][c]: caller c's result in round r.
    std::vector<std::vector<std::vector<Tensor>>> logits(
        kRounds, std::vector<std::vector<Tensor>>(
                     static_cast<std::size_t>(callers)));
    // Round r starts once every caller has arrived at it.
    std::atomic<int> arrived{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < callers; ++c) {
      threads.emplace_back([&, c] {
        for (int r = 0; r < kRounds; ++r) {
          arrived.fetch_add(1);
          while (arrived.load() < callers * (r + 1)) std::this_thread::yield();
          logits[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
              runners[static_cast<std::size_t>(r)]->run(request).logits;
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (int r = 0; r < kRounds; ++r) {
      for (int c = 0; c < callers; ++c) {
        const auto& got =
            logits[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].shape(), reference[i].shape());
          EXPECT_EQ(std::memcmp(got[i].data(), reference[i].data(),
                                static_cast<std::size_t>(got[i].numel()) *
                                    sizeof(float)),
                    0)
              << callers << " callers, round " << r << ", caller " << c
              << ", image " << i;
        }
      }
    }
  }
  runtime::set_num_threads(1);
}

TEST(RuntimeStressTest, ConcurrentEvaluateIsDeterministic) {
  models::BuildOptions build;
  build.classes = 4;
  build.width_scale = 0.125F;
  build.seed = kBaseSeed + 1;
  auto model = models::build_network(models::table1_network(4), build);
  core::install_lightnn(*model, 1);

  data::DatasetSpec spec;
  spec.classes = 4;
  spec.height = 12;
  spec.width = 12;
  spec.train_size = 4;
  spec.test_size = 12;
  spec.seed = kBaseSeed + 2;
  const auto split = data::make_synthetic(spec);

  runtime::set_num_threads(1);
  const auto network =
      inference::QuantizedNetwork::compile(*model, Shape{1, 3, 12, 12});
  const runtime::BatchRunner runner(network);
  runtime::InferenceRequest request;
  for (std::int64_t n = 0; n < split.test.size(); ++n) {
    request.images.push_back(split.test.image(n));
  }
  // The whole test split as one request, at 1 and at 7 threads: the same
  // argmax per image and the same counts.
  runtime::InferenceResult serial, parallel;
  runner.run(request, serial);
  runtime::set_num_threads(7);
  runner.run(request, parallel);
  runtime::set_num_threads(1);
  EXPECT_EQ(serial.argmax, parallel.argmax);
  const inference::NetworkOpCounts* const both[] = {&serial.counts,
                                                    &parallel.counts};
  // Both agree with QuantizedNetwork::evaluate's counts over the split.
  inference::NetworkOpCounts evaluated{};
  (void)network.evaluate(split.test, 1, &evaluated);
  EXPECT_EQ(evaluated.images, split.test.size());
  for (const inference::NetworkOpCounts* counts : both) {
    EXPECT_EQ(counts->shifts, evaluated.shifts);
    EXPECT_EQ(counts->adds, evaluated.adds);
    EXPECT_EQ(counts->images, evaluated.images);
  }
}

}  // namespace
}  // namespace flightnn
