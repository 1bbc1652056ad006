// Zero-allocation steady state: after warm-up, repeated BatchRunner::run
// calls into a reused InferenceResult must perform no heap allocations. The test
// replaces the global operator new/delete pair with counting versions; every
// allocation anywhere in the process (any thread) increments the counter
// while counting is armed.
//
// Two regimes:
//  - 1 thread: strict. The calling thread owns every buffer; after the first
//    batch has populated the tensor pool, quantization scratch, arenas and
//    counter vectors, subsequent batches must allocate exactly nothing.
//  - 4 threads: converge-then-assert. Workers acquire pool buffers lazily and
//    batch elements can land on different workers run-to-run, so each worker
//    may pay a one-time transient of at most one buffer per size class. The
//    test runs batches until it observes consecutive allocation-free batches,
//    then asserts several more stay clean. Failure to converge fails the test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/quantize_model.hpp"
#include "inference/network_program.hpp"
#include "inference/quantized_network.hpp"
#include "models/networks.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "serialize/artifact.hpp"
#include "serving/server.hpp"
#include "support/rng.hpp"
#include "tensor/buffer_pool.hpp"
#include "tensor/tensor.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define FLIGHTNN_ARENA_TEST_HAS_PID 1
#endif

namespace {

std::atomic<long long> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace flightnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Table-1 network `network_id` (1 = VGG-7, 2 = ResNet-18) at width 0.125,
// LightNN-2, lowered for 16x16 inputs.
inference::NetworkProgram make_program(int network_id = 1) {
  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = 0.125F;
  build.seed = 17;
  auto model = models::build_network(models::table1_network(network_id), build);
  core::install_lightnn(*model, 2);
  return inference::compile_program(*model, Shape{1, 3, 16, 16});
}

inference::QuantizedNetwork make_network(int network_id = 1) {
  return inference::QuantizedNetwork::from_program(make_program(network_id));
}

runtime::InferenceRequest make_request(std::int64_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  runtime::InferenceRequest request;
  request.images.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    request.images.push_back(Tensor::randn(Shape{3, 16, 16}, rng));
  }
  return request;
}

long long count_allocs_in_batch(const runtime::BatchRunner& runner,
                                const runtime::InferenceRequest& request,
                                runtime::InferenceResult& result) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  runner.run(request, result);
  g_counting.store(false, std::memory_order_seq_cst);
  return g_alloc_count.load(std::memory_order_relaxed);
}

TEST(ArenaAllocationTest, SingleThreadSteadyStateAllocatesNothing) {
  runtime::set_num_threads(1);
  const auto network = make_network();
  const runtime::BatchRunner runner(network);
  const auto request = make_request(6, 1001);

  runtime::InferenceResult result;
  // Warm-up: first batch builds the tensor pool, quantization scratch,
  // arena slots and counter vectors; second proves stability before arming.
  runner.run(request, result);
  runner.run(request, result);

  for (int batch = 0; batch < 5; ++batch) {
    const long long allocs = count_allocs_in_batch(runner, request, result);
    EXPECT_EQ(allocs, 0) << "steady-state batch " << batch
                         << " hit the heap " << allocs << " times";
  }
  EXPECT_EQ(result.logits.size(), request.images.size());
  EXPECT_EQ(result.argmax.size(), request.images.size());
  EXPECT_EQ(result.counts.images,
            static_cast<std::int64_t>(request.images.size()));
}

// Deployment regression: a network executed out of an mmap-loaded artifact
// (its int8 packs copied out of the read-only mapping once, at load) must
// reach the same zero-allocation steady state as the in-process compiled
// network above. Catches any loader change that starts materializing
// per-batch copies of the plan data.
TEST(ArenaAllocationTest, ArtifactMmapLoadedSteadyStateAllocatesNothing) {
  runtime::set_num_threads(1);
  const inference::NetworkProgram program = make_program();

#ifdef FLIGHTNN_ARENA_TEST_HAS_PID
  const std::string pid = std::to_string(static_cast<long>(::getpid()));
#else
  const std::string pid = "0";
#endif
  const std::string path =
      ::testing::TempDir() + "/arena_artifact_" + pid + ".flnart";
  serialize::save_artifact(program, path);

  {
    const serialize::ArtifactModel artifact =
        serialize::ArtifactModel::load(path);
    const runtime::BatchRunner runner(artifact.network());
    const auto request = make_request(6, 3003);

    runtime::InferenceResult result;
    runner.run(request, result);
    runner.run(request, result);

    for (int batch = 0; batch < 5; ++batch) {
      const long long allocs = count_allocs_in_batch(runner, request, result);
      EXPECT_EQ(allocs, 0)
          << "artifact-backed steady-state batch " << batch << " hit the heap "
          << allocs << " times";
    }
    EXPECT_EQ(result.logits.size(), request.images.size());
    EXPECT_EQ(result.argmax.size(), request.images.size());
  }
  std::remove(path.c_str());
}

// Memory plan (DESIGN.md §15): after BatchRunner::warm() the very FIRST
// batch must already be allocation-free -- the plan taken at load time
// pre-sizes the arena slots, the pooled activation working set (residual
// chain copies included), the quantization scratch and the counter vectors,
// so there is no grow-once warmup left to pay. The client-owned result
// storage is reserved by the client (that is its cost, like the request
// tensors above).
TEST(ArenaAllocationTest, PlannedWarmMakesFirstBatchAllocationFree) {
  runtime::set_num_threads(1);
  for (const int id : {1, 2}) {  // VGG-7 and ResNet-18 (residual chains)
    const auto network = make_network(id);
    const runtime::BatchRunner runner(network);
    const auto request = make_request(1, 7007);

    runtime::InferenceResult result;
    result.logits.reserve(1);
    result.argmax.reserve(1);
    // Start from empty slots and pools, so only warm can have sized them
    // (earlier tests in this process grew them too).
    runtime::ScratchArena::current().trim();
    tensor::pool::trim();
    runner.warm(1);

    const long long allocs = count_allocs_in_batch(runner, request, result);
    EXPECT_EQ(allocs, 0) << "network " << id
                         << ": first planned batch hit the heap " << allocs
                         << " times";
    EXPECT_EQ(result.logits.size(), 1U);

    // And it stays free, of course.
    for (int batch = 0; batch < 3; ++batch) {
      EXPECT_EQ(count_allocs_in_batch(runner, request, result), 0)
          << "network " << id;
    }
  }
}

// Same first-batch guarantee for a network served out of an mmap-loaded
// artifact: the in-loader plan rebuild must produce a plan as complete as
// the in-process one.
TEST(ArenaAllocationTest, PlannedWarmFirstBatchAllocationFreeFromArtifact) {
  runtime::set_num_threads(1);

#ifdef FLIGHTNN_ARENA_TEST_HAS_PID
  const std::string pid = std::to_string(static_cast<long>(::getpid()));
#else
  const std::string pid = "0";
#endif
  for (const int id : {1, 2}) {  // VGG-7 and ResNet-18 (residual chains)
    const std::string path = ::testing::TempDir() + "/arena_planned_artifact_" +
                             pid + "_" + std::to_string(id) + ".flnart";
    serialize::save_artifact(make_program(id), path);
    {
      const serialize::ArtifactModel artifact =
          serialize::ArtifactModel::load(path);
      const runtime::BatchRunner runner(artifact.network());
      const auto request = make_request(1, 8008);

      runtime::InferenceResult result;
      result.logits.reserve(1);
      result.argmax.reserve(1);
      runtime::ScratchArena::current().trim();
      tensor::pool::trim();
      runner.warm(1);

      const long long allocs = count_allocs_in_batch(runner, request, result);
      EXPECT_EQ(allocs, 0) << "network " << id
                           << ": first artifact-backed planned batch hit the "
                              "heap "
                           << allocs << " times";
      for (int batch = 0; batch < 3; ++batch) {
        EXPECT_EQ(count_allocs_in_batch(runner, request, result), 0)
            << "network " << id;
      }
    }
    std::remove(path.c_str());
  }
}

TEST(ArenaAllocationTest, MultiThreadSteadyStateConverges) {
  runtime::set_num_threads(4);
  const auto network = make_network();
  const runtime::BatchRunner runner(network);
  const auto request = make_request(9, 2002);

  runtime::InferenceResult result;
  runner.run(request, result);  // spin up workers + first-touch warm-up

  // Converge: workers warm their thread-local pools lazily and image->worker
  // assignment varies run to run, so allow a bounded number of batches for
  // the per-worker transients to die out.
  constexpr int kMaxWarmupBatches = 50;
  constexpr int kRequiredCleanStreak = 3;
  int clean_streak = 0;
  int batch = 0;
  for (; batch < kMaxWarmupBatches && clean_streak < kRequiredCleanStreak;
       ++batch) {
    const long long allocs = count_allocs_in_batch(runner, request, result);
    clean_streak = allocs == 0 ? clean_streak + 1 : 0;
  }
  ASSERT_EQ(clean_streak, kRequiredCleanStreak)
      << "allocations never converged to zero within " << kMaxWarmupBatches
      << " batches";

  // Assert: once converged, the steady state must stay allocation-free.
  for (int i = 0; i < 5; ++i) {
    const long long allocs = count_allocs_in_batch(runner, request, result);
    EXPECT_EQ(allocs, 0) << "post-convergence batch " << i << " allocated";
  }
  runtime::set_num_threads(1);
}

// Full serving path: submit -> batcher flush -> future resolve. Unlike the
// bare BatchRunner loop, exact zero is impossible by design: each request
// crosses the client/batcher boundary through a promise/future pair, a
// queue node, and a result whose ownership transfers to the client (so its
// storage cannot be recycled batcher-side). What the design does guarantee
// is that the per-round allocation count converges to a *constant* that is
// small and independent of how many rounds have run -- no leak-like growth,
// no per-round rediscovery of pool buffers.
TEST(ArenaAllocationTest, ServingPathConvergesToConstantPerRequestBudget) {
  runtime::set_num_threads(1);
  constexpr std::int64_t kImages = 4;
  const auto network = make_network();
  const runtime::BatchRunner runner(network);
  serving::ServerConfig config;
  config.max_batch = kImages;  // a full request flushes immediately
  config.max_queue_delay_s = 0.050;
  serving::Server server(runner, config);

  // Requests are prepared outside the counting window: building the input
  // tensors is the client's cost, not the serving path's.
  constexpr int kMaxRounds = 40;
  std::vector<runtime::InferenceRequest> requests;
  requests.reserve(kMaxRounds + 5);
  for (int i = 0; i < kMaxRounds + 5; ++i) {
    requests.push_back(make_request(kImages, 3000 + i));
  }
  std::size_t next = 0;

  const auto measure_round = [&]() -> long long {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_seq_cst);
    auto submission = server.submit(std::move(requests[next]));
    EXPECT_EQ(submission.status, serving::SubmitStatus::Ok);
    const runtime::InferenceResult result = submission.result.get();
    g_counting.store(false, std::memory_order_seq_cst);
    ++next;
    EXPECT_EQ(result.logits.size(), static_cast<std::size_t>(kImages));
    EXPECT_EQ(result.argmax.size(), static_cast<std::size_t>(kImages));
    return g_alloc_count.load(std::memory_order_relaxed);
  };

  // Converge: pools, the fused-batch scratch, and the stats histogram warm
  // up over the first rounds; after that every round must cost the same up
  // to kJitter (std::deque block caching makes a round cost +-1 depending
  // on whether the batcher thread pops before or after the next push).
  constexpr int kRequiredStableStreak = 3;
  constexpr long long kJitter = 1;
  long long stable_value = -1000;
  int streak = 0;
  int round = 0;
  for (; round < kMaxRounds && streak < kRequiredStableStreak; ++round) {
    const long long allocs = measure_round();
    if (std::llabs(allocs - stable_value) <= kJitter) {
      ++streak;
      stable_value = std::max(stable_value, allocs);
    } else {
      streak = 1;
      stable_value = allocs;
    }
  }
  ASSERT_EQ(streak, kRequiredStableStreak)
      << "per-round allocation count never stabilized within " << kMaxRounds
      << " rounds (last: " << stable_value << ")";

  // The stable cost must fit the per-request budget: promise/future shared
  // state, one queue node, the client-owned result vectors, and one logits
  // tensor per image. Anything beyond that indicates recycling broke.
  const long long kPerRoundBudget = 8 + 4 * kImages;
  EXPECT_LE(stable_value, kPerRoundBudget)
      << "steady-state serving round allocates " << stable_value
      << " times; budget is " << kPerRoundBudget;

  for (int i = 0; i < 5; ++i) {
    const long long allocs = measure_round();
    EXPECT_LE(allocs, stable_value + kJitter)
        << "post-convergence round " << i << " deviated";
  }
  server.shutdown();
  runtime::set_num_threads(1);
}

}  // namespace
}  // namespace flightnn
