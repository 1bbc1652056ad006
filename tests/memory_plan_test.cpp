// Tests for the memory plan (DESIGN.md §15) that QuantizedNetwork's
// load-time walk records in inference/memory_plan.hpp.
//
// The plan's contract has three legs, each tested here:
//   1. Row soundness: one coherent memory row per flat op, with arena
//      scratch for every shift conv.
//   2. Plan adequacy: after BatchRunner::warm, a run grows no arena slot,
//      across a sweep of network geometries -- the walk's model of the
//      kernels' scratch requests matches what the kernels actually ask
//      for. On the pool side, the walk's replay of run()'s pool traffic
//      gives the working set exactly: warm parks the planned activation
//      bytes, and a run takes one buffer per activation it makes, each a
//      pool hit, on real networks and on hand-built edge cases.
//   3. Artifact round trip: the plan taken on the artifact load path equals
//      the in-process one, and both networks produce byte-identical logits
//      at every thread count.

#include "inference/memory_plan.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/quantize_model.hpp"
#include "hand_program.hpp"
#include "inference/network_program.hpp"
#include "inference/quantized_network.hpp"
#include "models/networks.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "serialize/artifact.hpp"
#include "support/rng.hpp"
#include "tensor/buffer_pool.hpp"
#include "tensor/tensor.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define FLIGHTNN_MEMPLAN_TEST_HAS_PID 1
#endif

namespace flightnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Restore the thread count whatever a test does.
struct ThreadCountGuard {
  ~ThreadCountGuard() { runtime::set_num_threads(1); }
};

std::unique_ptr<nn::Sequential> make_model(int network_id, float width_scale,
                                           unsigned seed) {
  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = width_scale;
  build.seed = seed;
  auto model = models::build_network(models::table1_network(network_id), build);
  core::install_lightnn(*model, 2);
  return model;
}

bool logits_equal(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].shape() != b[i].shape()) return false;
    if (std::memcmp(a[i].data(), b[i].data(),
                    static_cast<std::size_t>(a[i].numel()) * sizeof(float)) !=
        0) {
      return false;
    }
  }
  return true;
}

runtime::InferenceRequest make_request(std::int64_t n, std::int64_t side,
                                       std::uint64_t seed) {
  support::Rng rng(seed);
  runtime::InferenceRequest request;
  for (std::int64_t i = 0; i < n; ++i) {
    request.images.push_back(Tensor::randn(Shape{3, side, side}, rng));
  }
  return request;
}

// --- Plan over real programs -------------------------------------------------

TEST(MemoryPlanTest, Table1NetworkLayoutsAreSound) {
  for (const int id : {1, 2}) {  // VGG-7 and ResNet-18 (residual chains)
    auto model = make_model(id, 0.125F, 11);
    auto program = inference::compile_program(*model, Shape{1, 3, 16, 16});
    const std::size_t op_count = program.ops.size();
    const auto network =
        inference::QuantizedNetwork::from_program(std::move(program));
    const inference::MemoryPlan* plan = network.memory_plan();
    // Every shift op (a linear one is a 1x1 conv) must have arena scratch,
    // its per-tap offsets, the u8 code plane and one int8 code per input
    // element; the census must be coherent.
    EXPECT_EQ(plan->per_op().size(), op_count);
    for (std::size_t i = 0; i < plan->per_op().size(); ++i) {
      const auto& mem = plan->per_op()[i];
      EXPECT_EQ(mem.op, i);
      EXPECT_EQ(mem.scratch_bytes,
                mem.offsets_bytes + mem.input_bytes + mem.codes_bytes);
      if (mem.kind == inference::ProgramOpKind::kShiftConv ||
          mem.kind == inference::ProgramOpKind::kShiftLinear) {
        EXPECT_GT(mem.offsets_bytes, 0U);
        EXPECT_GT(mem.input_bytes, 0U);
        EXPECT_GT(mem.codes_bytes, 0U);
      } else {
        EXPECT_EQ(mem.scratch_bytes, 0U);
      }
    }
    EXPECT_GT(plan->arena_capacity_bytes(), 0U);
    EXPECT_GT(plan->activation_pool_bytes(), 0U);
    EXPECT_EQ(plan->planned_per_thread_bytes(),
              plan->arena_capacity_bytes() + plan->activation_pool_bytes());
  }
}

// The perf ledger's two plain LightNN-2 networks at 32x32: VGG-7 w1.0 and
// ResNet-18 w0.5.
struct LedgerNetwork {
  int id;
  float width;
};
constexpr LedgerNetwork kLedgerNetworks[] = {{1, 1.0F}, {2, 0.5F}};

// run() takes one pooled buffer for its copy of the image, one per op that
// changes the shape and one per residual block (its main chain's copy of
// the block input): every other op rewrites its activation in place. After
// warm, each one is a pool hit.
TEST(MemoryPlanTest, RunAcquiresOneBufferPerActivationItMakes) {
  const ThreadCountGuard guard;
  runtime::set_num_threads(1);
  support::Rng rng(5);
  const std::uint64_t expected[] = {13, 31};
  for (std::size_t n = 0; n < std::size(kLedgerNetworks); ++n) {
    const LedgerNetwork& net = kLedgerNetworks[n];
    auto model = make_model(net.id, net.width, 1);
    auto program = inference::compile_program(*model, Shape{1, 3, 32, 32});
    std::uint64_t buffers = 1;  // the image copy
    for (const inference::ProgramOp& op : program.ops) {
      switch (op.kind) {
        case inference::ProgramOpKind::kQuantAct:
        case inference::ProgramOpKind::kAffine:
        case inference::ProgramOpKind::kLeakyRelu:
        case inference::ProgramOpKind::kFlatten:
          break;
        default:
          ++buffers;
      }
    }
    EXPECT_EQ(buffers, expected[n]) << "network " << net.id;
    const auto network =
        inference::QuantizedNetwork::from_program(std::move(program));
    const Tensor image = Tensor::randn(Shape{3, 32, 32}, rng);
    // The pool then holds the working set alone, which no cap truncates.
    tensor::pool::trim();
    network.memory_plan()->warm_thread();
    const tensor::pool::Stats before = tensor::pool::stats();
    { const Tensor logits = network.run(image); }
    const tensor::pool::Stats after = tensor::pool::stats();
    EXPECT_EQ(after.acquires - before.acquires, expected[n])
        << "network " << net.id;
    EXPECT_EQ(after.hits - before.hits, expected[n]) << "network " << net.id;
  }
}

// warm_thread parks exactly activation_pool_bytes() in a fresh thread's
// pool, and a run() on that thread takes every buffer it needs from there
// and gives each one back: the pool holds the plan's number before and
// after, which is what --mem-budget counts per thread. The hand-built
// programs are the replay's edge cases; on them, and on the perf
// ledger's three networks, the plan's pool bytes are pinned too, so a walk
// that parked more than run() needs fails as well.
TEST(MemoryPlanTest, WarmParksThePlannedPoolBytes) {
  using inference::hand::hand_program;
  using inference::hand::leaky_op;
  using inference::hand::max_pool_op;
  using inference::hand::residual_op;
  using inference::hand::shift_conv_op;
  const ThreadCountGuard guard;
  runtime::set_num_threads(1);
  struct Case {
    std::string name;
    inference::QuantizedNetwork network;
    Shape image;
    std::size_t pool_bytes;
  };
  std::vector<Case> cases;
  // A [2, 4, 4] activation is 32 floats (128 B), its 2x2 pool 8 (32 B).
  // With no ops, run() hands back its copy of the image.
  cases.push_back({"no ops",
                   inference::QuantizedNetwork::from_program(hand_program({})),
                   Shape{2, 4, 4}, 128});
  cases.push_back(
      {"empty main chain",
       inference::QuantizedNetwork::from_program(hand_program(
           {residual_op(0, 1, 1, true), leaky_op(), max_pool_op(2, 2)})),
       Shape{2, 4, 4}, 2 * 128 + 32});
  cases.push_back({"empty shortcut",
                   inference::QuantizedNetwork::from_program(hand_program(
                       {residual_op(1, 0, 0, false), shift_conv_op()})),
                   Shape{2, 4, 4}, 3 * 128});
  cases.push_back(
      {"shape-changing shortcut",
       inference::QuantizedNetwork::from_program(
           hand_program({residual_op(2, 1, 0, true), shift_conv_op(),
                         max_pool_op(2, 2), max_pool_op(2, 2)})),
       Shape{2, 4, 4}, 3 * 128 + 2 * 32});
  // An outer block whose main chain is an inner block and a leaky-ReLU: at
  // the inner conv the image, both copies and the conv output are out.
  cases.push_back(
      {"nested blocks",
       inference::QuantizedNetwork::from_program(hand_program(
           {residual_op(4, 0, 1, false), residual_op(1, 1, 0, true),
            shift_conv_op(), leaky_op(), leaky_op(), max_pool_op(2, 2)})),
       Shape{2, 4, 4}, 4 * 128 + 32});
  for (const LedgerNetwork& net : kLedgerNetworks) {
    auto model = make_model(net.id, net.width, 1);
    cases.push_back({"network " + std::to_string(net.id),
                     inference::QuantizedNetwork::compile(
                         *model, Shape{1, 3, 32, 32}),
                     Shape{3, 32, 32}, net.id == 1 ? 168232U : 196904U});
  }
  {
    // The ledger's tiny FLightNN: VGG-7 w0.25, per-filter k.
    models::BuildOptions build;
    build.classes = 10;
    build.width_scale = 0.25F;
    build.seed = 1;
    auto model = models::build_network(models::table1_network(1), build);
    core::install_flightnn(*model, core::FLightNNConfig{});
    cases.push_back({"tiny FLightNN",
                     inference::QuantizedNetwork::compile(
                         *model, Shape{1, 3, 32, 32}),
                     Shape{3, 32, 32}, 67688U});
  }

  support::Rng rng(9);
  for (const Case& c : cases) {
    const inference::MemoryPlan& plan = *c.network.memory_plan();
    EXPECT_EQ(plan.activation_pool_bytes(), c.pool_bytes) << c.name;
    const Tensor image = Tensor::randn(c.image, rng);
    std::thread fresh([&] {
      plan.warm_thread();
      const tensor::pool::Stats warmed = tensor::pool::stats();
      EXPECT_EQ(warmed.cached_bytes, plan.activation_pool_bytes()) << c.name;
      { const Tensor logits = c.network.run(image); }
      const tensor::pool::Stats after = tensor::pool::stats();
      EXPECT_EQ(after.cached_bytes, warmed.cached_bytes) << c.name;
      EXPECT_GT(after.acquires, warmed.acquires) << c.name;
      EXPECT_EQ(after.hits - warmed.hits, after.acquires - warmed.acquires)
          << c.name << ": a run() acquire missed the pool";
    });
    fresh.join();
  }
}

TEST(MemoryPlanTest, WarmCoversEveryFetchAcrossGeometries) {
  const ThreadCountGuard guard;
  runtime::set_num_threads(1);
  // Geometry sweep: both Table-1 structures at several widths and input
  // sides. Warm must reserve every arena slot to the largest request a run
  // makes -- the walk's model of the kernels' scratch requests has to be
  // exact, not approximate -- and to no more than that.
  support::Rng rng(7);
  for (const int id : {1, 2}) {
    for (const float width : {0.125F, 0.25F}) {
      for (const std::int64_t side : {16, 24}) {
        auto model = make_model(id, width, 31);
        const auto network = inference::QuantizedNetwork::compile(
            *model, Shape{1, 3, side, side});
        auto& arena = runtime::ScratchArena::current();
        arena.trim();  // each case starts from empty slots
        const runtime::BatchRunner runner(network);
        runner.warm(1);
        const std::size_t warmed = arena.footprint_bytes();
        EXPECT_EQ(warmed, network.memory_plan()->arena_capacity_bytes())
            << "network " << id << " width " << width << " side " << side;
        const Tensor image = Tensor::randn(Shape{3, side, side}, rng);
        (void)network.run(image);
        EXPECT_EQ(arena.footprint_bytes(), warmed)
            << "network " << id << " width " << width << " side " << side
            << ": a run grew a scratch slot past what warm reserved";
      }
    }
  }
}

TEST(MemoryPlanTest, ArtifactRoundTripKeepsPlanAndLogits) {
  const ThreadCountGuard guard;
  runtime::set_num_threads(1);
  auto model = make_model(1, 0.125F, 47);
  const auto program = inference::compile_program(*model, Shape{1, 3, 16, 16});

#ifdef FLIGHTNN_MEMPLAN_TEST_HAS_PID
  const std::string pid = std::to_string(static_cast<long>(::getpid()));
#else
  const std::string pid = "0";
#endif
  const std::string path =
      ::testing::TempDir() + "/memory_plan_" + pid + ".flnart";
  serialize::save_artifact(program, path);

  const auto compiled =
      inference::QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  {
    const serialize::ArtifactModel artifact =
        serialize::ArtifactModel::load(path);
    // The plan is taken in-loader (the artifact stores none of it) and
    // sizes the arena exactly as the in-process one does.
    EXPECT_EQ(artifact.network().memory_plan()->arena_capacity_bytes(),
              compiled.memory_plan()->arena_capacity_bytes());

    const runtime::BatchRunner compiled_runner(compiled);
    const runtime::BatchRunner artifact_runner(artifact.network());
    const auto request = make_request(5, 16, 1234);
    for (const int threads : {1, 4}) {
      runtime::set_num_threads(threads);
      runtime::InferenceResult a, b;
      compiled_runner.run(request, a);
      artifact_runner.run(request, b);
      EXPECT_TRUE(logits_equal(a.logits, b.logits))
          << "artifact logits differ at " << threads << " threads";
    }
  }
  std::remove(path.c_str());
}

TEST(MemoryPlanTest, ProfileReportsPlannedScratch) {
  const ThreadCountGuard guard;
  runtime::set_num_threads(1);
  auto model = make_model(1, 0.125F, 19);
  const auto network =
      inference::QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  support::Rng rng(3);
  const Tensor image = Tensor::randn(Shape{3, 16, 16}, rng);
  const auto steps = network.profile(image, /*repeats=*/1);
  // The rows cover every op once, so their scratch sums to the plan's.
  std::size_t row_total = 0;
  for (const auto& step : steps) row_total += step.planned_scratch_bytes;
  std::size_t op_total = 0;
  for (const auto& mem : network.memory_plan()->per_op()) {
    op_total += mem.scratch_bytes;
  }
  EXPECT_GT(op_total, 0U);
  EXPECT_EQ(row_total, op_total);
}

}  // namespace
}  // namespace flightnn
