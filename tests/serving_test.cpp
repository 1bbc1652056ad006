// Serving-layer test suite: the dynamic batcher's flush policies (size vs
// deadline), admission control under a seeded burst, graceful shutdown
// draining every accepted future, and the differential guarantee that
// server-path logits are bit-identical to direct BatchRunner output. Run
// under the debug-tsan preset (CI thread-sanitizer job) this is the
// data-race gate for the serving subsystem; the client threads, the batcher
// thread and the kernel pool all interleave here.
//
// Deterministic-by-construction where possible: the overload and drain
// tests pick configs where the batcher provably cannot flush during the
// submission window (huge deadline + huge max_batch), so accept/reject
// splits are exact, not timing-dependent.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "core/quantize_model.hpp"
#include "inference/quantized_network.hpp"
#include "models/networks.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "runtime/thread_pool.hpp"
#include "serving/server.hpp"
#include "support/rng.hpp"

namespace flightnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::uint64_t kBaseSeed = 9100;

inference::QuantizedNetwork make_network(std::uint64_t seed = kBaseSeed) {
  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = 0.125F;
  build.seed = seed;
  auto model = models::build_network(models::table1_network(1), build);
  core::install_lightnn(*model, 2);
  return inference::QuantizedNetwork::compile(*model, Shape{1, 3, 12, 12});
}

runtime::InferenceRequest make_request(std::uint64_t id, std::int64_t images,
                                       std::uint64_t seed) {
  support::Rng rng(seed);
  runtime::InferenceRequest request;
  request.id = id;
  request.images.reserve(static_cast<std::size_t>(images));
  for (std::int64_t i = 0; i < images; ++i) {
    request.images.push_back(Tensor::randn(Shape{3, 12, 12}, rng));
  }
  return request;
}

void expect_bitwise_equal(const Tensor& expected, const Tensor& actual,
                          const char* what) {
  ASSERT_EQ(expected.shape(), actual.shape()) << what;
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        static_cast<std::size_t>(expected.numel()) *
                            sizeof(float)),
            0)
      << what << ": server-path logits differ from direct BatchRunner";
}

TEST(ServingTest, SizeFlushFusesAFullBatch) {
  runtime::set_num_threads(1);
  const auto network = make_network();
  const runtime::BatchRunner runner(network);
  serving::ServerConfig config;
  config.max_batch = 4;
  config.max_queue_delay_s = 10.0;  // deadline cannot fire; only size can
  serving::Server server(runner, config);

  std::vector<std::future<runtime::InferenceResult>> futures;
  for (std::uint64_t r = 0; r < 4; ++r) {
    auto submission = server.submit(make_request(r, 1, kBaseSeed + r));
    ASSERT_EQ(submission.status, serving::SubmitStatus::Ok);
    futures.push_back(std::move(submission.result));
  }
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_EQ(result.logits.size(), 1u);
    // Every request rode in the one size-triggered flush of 4 images.
    EXPECT_EQ(result.timing.batch_size, 4);
    EXPECT_GE(result.timing.queue_seconds, 0.0);
    EXPECT_GT(result.timing.compute_seconds, 0.0);
  }
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 4);
  EXPECT_EQ(stats.completed, 4);
  EXPECT_EQ(stats.batches, 1);
  ASSERT_EQ(stats.batch_size_histogram.size(), 5u);
  EXPECT_EQ(stats.batch_size_histogram[4], 1);
}

TEST(ServingTest, DeadlineFlushDeliversPartialBatch) {
  runtime::set_num_threads(1);
  const auto network = make_network();
  const runtime::BatchRunner runner(network);
  serving::ServerConfig config;
  config.max_batch = 64;             // size cannot trigger with 2 images
  config.max_queue_delay_s = 0.002;  // the deadline must do it
  serving::Server server(runner, config);

  auto first = server.submit(make_request(1, 1, kBaseSeed + 11));
  auto second = server.submit(make_request(2, 1, kBaseSeed + 12));
  ASSERT_EQ(first.status, serving::SubmitStatus::Ok);
  ASSERT_EQ(second.status, serving::SubmitStatus::Ok);
  const auto result_one = first.result.get();
  const auto result_two = second.result.get();
  // The deadline flushed a partial batch: strictly fewer images than
  // max_batch, so the future completed without 62 more images arriving.
  EXPECT_LT(result_one.timing.batch_size, 64);
  EXPECT_LT(result_two.timing.batch_size, 64);
  EXPECT_GE(result_one.timing.batch_size, 1);
  server.shutdown();
  EXPECT_EQ(server.stats().completed, 2);
}

// Deadline-flush vs size-flush race: an aggressive config (deadline 0, so
// every wakeup is past-deadline, while concurrent submits keep re-arming
// size triggers) hammered by multiple client threads. Every accepted future
// must complete with the right number of logits.
TEST(ServingTest, DeadlineVsSizeFlushRaceUnderConcurrentClients) {
  runtime::set_num_threads(2);
  const auto network = make_network();
  const runtime::BatchRunner runner(network);
  serving::ServerConfig config;
  config.max_batch = 4;
  config.max_queue_delay_s = 0.0;  // flush as soon as the batcher wakes
  config.max_queue_images = 1024;  // admission never interferes
  serving::Server server(runner, config);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 6;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::size_t>> logit_counts(kClients);
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const std::int64_t images = (t + r) % 3 + 1;
        auto submission = server.submit(make_request(
            static_cast<std::uint64_t>(t * 100 + r), images,
            kBaseSeed + static_cast<std::uint64_t>(t * 100 + r)));
        ASSERT_EQ(submission.status, serving::SubmitStatus::Ok);
        const auto result = submission.result.get();
        logit_counts[static_cast<std::size_t>(t)].push_back(
            result.logits.size());
        EXPECT_EQ(result.logits.size(), static_cast<std::size_t>(images));
        EXPECT_EQ(result.argmax.size(), static_cast<std::size_t>(images));
        EXPECT_EQ(result.counts.images, images);
      }
    });
  }
  for (auto& client : clients) client.join();
  server.shutdown();
  runtime::set_num_threads(1);
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.completed, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.rejected, 0);
  for (const auto& counts : logit_counts) {
    EXPECT_EQ(counts.size(), static_cast<std::size_t>(kRequestsPerClient));
  }
}

// Overload rejection with an exact, timing-independent accept/reject split:
// the batcher provably cannot flush (huge deadline, huge max_batch), so a
// serial burst of 10 single-image requests against a 4-image queue bound
// accepts exactly 4 and rejects exactly 6; shutdown then drains the 4.
TEST(ServingTest, OverloadRejectsExactlyBeyondQueueBound) {
  runtime::set_num_threads(1);
  const auto network = make_network();
  const runtime::BatchRunner runner(network);
  serving::ServerConfig config;
  config.max_batch = 100;
  config.max_queue_delay_s = 10.0;
  config.max_queue_images = 4;
  config.block_on_full = false;
  serving::Server server(runner, config);

  std::vector<std::future<runtime::InferenceResult>> accepted;
  int rejected = 0;
  for (std::uint64_t r = 0; r < 10; ++r) {
    auto submission = server.submit(make_request(r, 1, kBaseSeed + 20 + r));
    if (submission.status == serving::SubmitStatus::Ok) {
      accepted.push_back(std::move(submission.result));
    } else {
      EXPECT_EQ(submission.status, serving::SubmitStatus::Overloaded);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted.size(), 4u);
  EXPECT_EQ(rejected, 6);

  server.shutdown();  // drains the 4 queued requests
  for (auto& future : accepted) {
    const auto result = future.get();
    EXPECT_EQ(result.logits.size(), 1u);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 4);
  EXPECT_EQ(stats.rejected, 6);
  EXPECT_EQ(stats.completed, 4);
}

// Seeded concurrent burst against a tight queue: accept/reject counts must
// reconcile exactly and every accepted future must complete. (The split
// itself is timing-dependent here; the accounting must not be.)
TEST(ServingTest, BurstAccountingReconcilesUnderConcurrency) {
  runtime::set_num_threads(2);
  const auto network = make_network();
  const runtime::BatchRunner runner(network);
  serving::ServerConfig config;
  config.max_batch = 2;
  config.max_queue_delay_s = 0.001;
  config.max_queue_images = 4;
  serving::Server server(runner, config);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 8;
  std::atomic<int> ok{0};
  std::atomic<int> overloaded{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        auto submission = server.submit(make_request(
            static_cast<std::uint64_t>(t * 100 + r), 1,
            kBaseSeed + 40 + static_cast<std::uint64_t>(t * 100 + r)));
        if (submission.status == serving::SubmitStatus::Ok) {
          ok.fetch_add(1);
          const auto result = submission.result.get();
          EXPECT_EQ(result.logits.size(), 1u);
        } else {
          ASSERT_EQ(submission.status, serving::SubmitStatus::Overloaded);
          overloaded.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  server.shutdown();
  runtime::set_num_threads(1);
  const auto stats = server.stats();
  EXPECT_EQ(ok.load() + overloaded.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(stats.accepted, ok.load());
  EXPECT_EQ(stats.rejected, overloaded.load());
  EXPECT_EQ(stats.completed, ok.load());
}

TEST(ServingTest, BlockingModeAcceptsEverything) {
  runtime::set_num_threads(1);
  const auto network = make_network();
  const runtime::BatchRunner runner(network);
  serving::ServerConfig config;
  config.max_batch = 1;              // drain continuously
  config.max_queue_delay_s = 0.0;
  config.max_queue_images = 2;       // force submit() to block
  config.block_on_full = true;
  serving::Server server(runner, config);

  std::vector<std::future<runtime::InferenceResult>> futures;
  for (std::uint64_t r = 0; r < 8; ++r) {
    auto submission = server.submit(make_request(r, 1, kBaseSeed + 60 + r));
    ASSERT_EQ(submission.status, serving::SubmitStatus::Ok);
    futures.push_back(std::move(submission.result));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().logits.size(), 1u);
  }
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 8);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.completed, 8);
}

TEST(ServingTest, ShutdownDrainsEveryAcceptedFuture) {
  runtime::set_num_threads(1);
  const auto network = make_network();
  const runtime::BatchRunner runner(network);
  serving::ServerConfig config;
  config.max_batch = 100;
  config.max_queue_delay_s = 10.0;  // nothing flushes until shutdown
  serving::Server server(runner, config);

  std::vector<std::future<runtime::InferenceResult>> futures;
  for (std::uint64_t r = 0; r < 3; ++r) {
    auto submission =
        server.submit(make_request(r, r % 2 + 1, kBaseSeed + 70 + r));
    ASSERT_EQ(submission.status, serving::SubmitStatus::Ok);
    futures.push_back(std::move(submission.result));
  }
  server.shutdown();
  for (auto& future : futures) {
    EXPECT_FALSE(future.get().logits.empty());
  }
  EXPECT_EQ(server.stats().completed, 3);

  // Post-shutdown submissions get the typed status, never a broken promise.
  auto late = server.submit(make_request(99, 1, kBaseSeed + 79));
  EXPECT_EQ(late.status, serving::SubmitStatus::ShuttingDown);
  EXPECT_FALSE(late.result.valid());
}

// The serving differential: logits, argmax and per-request op counts coming
// back through the batcher must be bit-identical to running the same
// request directly on the BatchRunner, even while other clients' requests
// fuse into the same dynamic batches.
TEST(ServingTest, ServerPathBitIdenticalToDirectBatchRunner) {
  runtime::set_num_threads(1);
  const auto network = make_network(kBaseSeed + 1);
  const runtime::BatchRunner runner(network);

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 4;
  // Direct references, computed before any concurrency starts.
  std::vector<std::vector<runtime::InferenceResult>> reference(kClients);
  for (int t = 0; t < kClients; ++t) {
    for (int r = 0; r < kRequestsPerClient; ++r) {
      const auto seed =
          kBaseSeed + 80 + static_cast<std::uint64_t>(t * 100 + r);
      reference[static_cast<std::size_t>(t)].push_back(runner.run(
          make_request(static_cast<std::uint64_t>(t * 100 + r),
                       (t + r) % 3 + 1, seed)));
    }
  }

  runtime::set_num_threads(4);
  serving::ServerConfig config;
  config.max_batch = 5;
  config.max_queue_delay_s = 0.001;
  config.max_queue_images = 1024;
  serving::Server server(runner, config);
  std::vector<std::vector<runtime::InferenceResult>> served(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const auto seed =
            kBaseSeed + 80 + static_cast<std::uint64_t>(t * 100 + r);
        auto submission = server.submit(
            make_request(static_cast<std::uint64_t>(t * 100 + r),
                         (t + r) % 3 + 1, seed));
        ASSERT_EQ(submission.status, serving::SubmitStatus::Ok);
        served[static_cast<std::size_t>(t)].push_back(
            submission.result.get());
      }
    });
  }
  for (auto& client : clients) client.join();
  server.shutdown();
  runtime::set_num_threads(1);

  for (int t = 0; t < kClients; ++t) {
    for (int r = 0; r < kRequestsPerClient; ++r) {
      const auto& expected =
          reference[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)];
      const auto& actual =
          served[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)];
      EXPECT_EQ(expected.id, actual.id);
      ASSERT_EQ(expected.logits.size(), actual.logits.size());
      for (std::size_t i = 0; i < expected.logits.size(); ++i) {
        expect_bitwise_equal(expected.logits[i], actual.logits[i],
                             "served logits");
      }
      EXPECT_EQ(expected.argmax, actual.argmax);
      // Per-request census attribution survives dynamic batching.
      EXPECT_EQ(expected.counts.shifts, actual.counts.shifts);
      EXPECT_EQ(expected.counts.adds, actual.counts.adds);
      EXPECT_EQ(expected.counts.images, actual.counts.images);
    }
  }
}

// Admission checks: a request holding an image the network cannot run
// (wrong channels, wrong H x W, a NaN pixel) is refused at submit() with
// InvalidRequest and never enters a batch, so the good requests of the same
// burst fuse, run and match direct runs byte for byte.
TEST(ServingTest, BadRequestsAreRefusedAtAdmission) {
  runtime::set_num_threads(1);
  const auto network = make_network(kBaseSeed + 2);
  const runtime::BatchRunner runner(network);
  serving::ServerConfig config;
  config.max_batch = 6;
  config.max_queue_delay_s = 0.005;
  serving::Server server(runner, config);

  support::Rng rng(kBaseSeed + 90);
  runtime::InferenceRequest wrong_channels;
  wrong_channels.images.push_back(Tensor::randn(Shape{1, 12, 12}, rng));
  runtime::InferenceRequest wrong_side;
  wrong_side.images.push_back(Tensor::randn(Shape{3, 12, 12}, rng));
  wrong_side.images.push_back(Tensor::randn(Shape{3, 10, 12}, rng));
  runtime::InferenceRequest nan_pixel = make_request(3, 2, kBaseSeed + 91);
  nan_pixel.images[1][7] = std::numeric_limits<float>::quiet_NaN();

  std::vector<runtime::InferenceRequest> good;
  for (std::uint64_t r = 0; r < 3; ++r) {
    good.push_back(make_request(10 + r, 2, kBaseSeed + 92 + r));
  }
  std::vector<serving::Server::Submission> accepted;
  for (std::size_t r = 0; r < good.size(); ++r) {
    auto submission = server.submit(good[r]);
    ASSERT_EQ(submission.status, serving::SubmitStatus::Ok);
    accepted.push_back(std::move(submission));
    if (r == 0) {
      for (auto* bad : {&wrong_channels, &wrong_side, &nan_pixel}) {
        EXPECT_EQ(server.submit(*bad).status,
                  serving::SubmitStatus::InvalidRequest);
      }
    }
  }
  for (std::size_t r = 0; r < good.size(); ++r) {
    const runtime::InferenceResult served = accepted[r].result.get();
    const runtime::InferenceResult direct = runner.run(good[r]);
    ASSERT_EQ(served.logits.size(), direct.logits.size());
    for (std::size_t i = 0; i < direct.logits.size(); ++i) {
      expect_bitwise_equal(direct.logits[i], served.logits[i],
                           "logits beside refused requests");
    }
    EXPECT_EQ(served.counts.shifts, direct.counts.shifts);
    EXPECT_EQ(served.counts.images, 2);
  }
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.invalid, 3);
  EXPECT_EQ(stats.accepted, 3);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_STREQ(serving::to_string(serving::SubmitStatus::InvalidRequest),
               "invalid_request");
}

// The batcher frees the request images it fuses, which clients made, and
// the clients free the logits it makes: one-way traffic its tensor pool must
// not park. 80 requests of 4 images, more than the 256 per size a count cap
// once let the batcher keep, leave it holding no more than the activation
// working set warm parked there.
TEST(ServingTest, BatcherPoolHoldsOnlyTheWorkingSet) {
  runtime::set_num_threads(1);
  const auto network = make_network(kBaseSeed + 3);
  const runtime::BatchRunner runner(network);
  serving::ServerConfig config;
  config.max_batch = 4;  // every request flushes on size
  config.max_queue_delay_s = 10.0;
  serving::Server server(runner, config);

  constexpr int kRequests = 80;
  for (int r = 0; r < kRequests; ++r) {
    auto submission = server.submit(make_request(
        static_cast<std::uint64_t>(r), 4,
        kBaseSeed + 200 + static_cast<std::uint64_t>(r)));
    ASSERT_EQ(submission.status, serving::SubmitStatus::Ok);
    EXPECT_EQ(submission.result.get().logits.size(), 4U);
  }
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.batches, kRequests);
  EXPECT_GT(stats.batcher_pooled_bytes, 0U);
  EXPECT_LE(stats.batcher_pooled_bytes,
            network.memory_plan()->activation_pool_bytes());
}

}  // namespace
}  // namespace flightnn
