// Tests for the memory-budgeted execution planner (DESIGN.md §15): the
// offline liveness analysis + interval coloring in runtime/memory_plan.hpp
// and the NetworkProgram-level planner in inference/memory_plan.hpp.
//
// The planner's contract has three legs, each tested here:
//   1. Layout soundness (property): two buffers whose live intervals
//      overlap in time never overlap in the arena; every offset is
//      64-byte-aligned; every extent fits the claimed capacity.
//   2. Execution equivalence (differential): planned and dynamic-arena
//      runs of the same program produce byte-identical logits at every
//      thread count, including through an artifact save/load round trip.
//   3. Plan adequacy: executing a planned network serves every scratch
//      fetch from its planned extent (zero plan misses) across a sweep of
//      network geometries -- the planner's simulation of the kernels'
//      requests matches what the kernels actually ask for.

#include "inference/memory_plan.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/quantize_model.hpp"
#include "inference/network_program.hpp"
#include "inference/quantized_network.hpp"
#include "models/networks.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "runtime/memory_plan.hpp"
#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "serialize/artifact.hpp"
#include "support/rng.hpp"
#include "tensor/tensor.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define FLIGHTNN_MEMPLAN_TEST_HAS_PID 1
#endif

namespace flightnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Restore the planning override (and thread count) whatever a test does.
struct PlanningOverrideGuard {
  ~PlanningOverrideGuard() {
    inference::set_memory_planning_override(-1);
    runtime::set_num_threads(1);
  }
};

bool temporally_overlap(const runtime::BufferInterval& a,
                        const runtime::BufferInterval& b) {
  return a.def_op <= b.last_use_op && b.def_op <= a.last_use_op;
}

// The layout-soundness property every colored interval set must satisfy.
void expect_sound_layout(const std::vector<runtime::BufferInterval>& intervals,
                         std::size_t capacity, const std::string& what) {
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const auto& a = intervals[i];
    if (a.bytes == 0) continue;
    ASSERT_NE(a.offset, runtime::kUnassignedOffset) << what << " interval " << i;
    EXPECT_EQ(a.offset % runtime::kArenaAlignment, 0U)
        << what << " interval " << i << " is misaligned";
    EXPECT_LE(a.offset + runtime::align_up(a.bytes), capacity)
        << what << " interval " << i << " overruns the arena";
    for (std::size_t j = i + 1; j < intervals.size(); ++j) {
      const auto& b = intervals[j];
      if (b.bytes == 0 || !temporally_overlap(a, b)) continue;
      const bool disjoint =
          a.offset + runtime::align_up(a.bytes) <= b.offset ||
          b.offset + runtime::align_up(b.bytes) <= a.offset;
      EXPECT_TRUE(disjoint)
          << what << ": intervals " << i << " and " << j
          << " are live together but share bytes (offsets " << a.offset
          << "+" << a.bytes << " vs " << b.offset << "+" << b.bytes << ")";
    }
  }
}

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

// --- 1. Coloring mechanics (runtime layer) ----------------------------------

TEST(ArenaColoringTest, OverlappingIntervalsGetDisjointBytes) {
  std::vector<runtime::BufferInterval> intervals;
  intervals.push_back({0, runtime::Scratch::kConvOffsets, 100, 0, 0,
                       runtime::kUnassignedOffset});
  intervals.push_back({0, runtime::Scratch::kConvAccumulator, 200, 0, 0,
                       runtime::kUnassignedOffset});
  intervals.push_back({1, runtime::Scratch::kConvOffsets, 300, 1, 1,
                       runtime::kUnassignedOffset});
  const std::size_t capacity = runtime::assign_arena_offsets(intervals);
  expect_sound_layout(intervals, capacity, "hand-built");
  // Ops 0 and 1 never run together: op 1 reuses op 0's space, so the arena
  // is sized by the widest instant, not the sum of all extents.
  EXPECT_LT(capacity, runtime::align_up(100) + runtime::align_up(200) +
                          runtime::align_up(300));
  EXPECT_GE(capacity, runtime::align_up(100) + runtime::align_up(200));
}

TEST(ArenaColoringTest, RandomIntervalSetsStaySound) {
  support::Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<runtime::BufferInterval> intervals;
    const int n = 2 + static_cast<int>(rng.uniform_index(30));
    std::size_t total = 0;
    for (int i = 0; i < n; ++i) {
      runtime::BufferInterval interval;
      interval.op = static_cast<std::uint32_t>(i);
      interval.slot =
          static_cast<runtime::Scratch>(rng.uniform_index(2));
      interval.bytes = 1 + static_cast<std::size_t>(rng.uniform_index(4096));
      interval.def_op = static_cast<std::uint32_t>(rng.uniform_index(16));
      interval.last_use_op =
          interval.def_op + static_cast<std::uint32_t>(rng.uniform_index(8));
      total += runtime::align_up(interval.bytes);
      intervals.push_back(interval);
    }
    const std::size_t capacity = runtime::assign_arena_offsets(intervals);
    expect_sound_layout(intervals, capacity,
                        "trial " + std::to_string(trial));
    EXPECT_LE(capacity, total) << "coloring worse than stacking everything";
  }
}

// --- 2. Planner over real programs -------------------------------------------

TEST(MemoryPlanTest, Table1NetworkLayoutsAreSound) {
  for (const int id : {1, 2}) {  // VGG-7 and ResNet-18 (residual chains)
    auto model = make_model(id, 0.125F, 11);
    const auto program =
        inference::compile_program(*model, Shape{1, 3, 16, 16});
    const auto plan = inference::MemoryPlan::try_build(program);
    ASSERT_NE(plan, nullptr) << "network " << id;
    expect_sound_layout(plan->layout().intervals(),
                        plan->layout().capacity_bytes(),
                        "network " + std::to_string(id));
    // Every conv op must have planned scratch; the census must be coherent.
    EXPECT_EQ(plan->per_op().size(), program.ops.size());
    for (const auto& mem : plan->per_op()) {
      EXPECT_EQ(mem.scratch_bytes, mem.offsets_bytes + mem.accumulator_bytes);
      if (mem.kind == inference::ProgramOpKind::kShiftConv) {
        EXPECT_GT(mem.scratch_bytes, 0U);
        EXPECT_NE(mem.scratch_offset, runtime::kUnassignedOffset);
      }
    }
    EXPECT_GT(plan->arena_capacity_bytes(), 0U);
    EXPECT_GT(plan->activation_peak_bytes(), 0U);
    EXPECT_GT(plan->quant_peak_values(), 0U);
  }
}

TEST(MemoryPlanTest, PlannedVsDynamicLogitsBitIdentical) {
  const PlanningOverrideGuard guard;
  for (const int id : {1, 2}) {
    auto model = make_model(id, 0.125F, 23);

    inference::set_memory_planning_override(1);
    const auto planned =
        inference::QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
    inference::set_memory_planning_override(0);
    const auto dynamic =
        inference::QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
    inference::set_memory_planning_override(-1);
    ASSERT_NE(planned.memory_plan(), nullptr) << "network " << id;
    ASSERT_EQ(dynamic.memory_plan(), nullptr) << "network " << id;

    const runtime::BatchRunner planned_runner(planned);
    const runtime::BatchRunner dynamic_runner(dynamic);
    const auto request = make_request(6, 16, 900 + id);
    for (const int threads : {1, 4}) {
      runtime::set_num_threads(threads);
      runtime::InferenceResult a, b;
      planned_runner.run(request, a);
      dynamic_runner.run(request, b);
      EXPECT_TRUE(logits_equal(a.logits, b.logits))
          << "network " << id << " at " << threads
          << " threads: planned and dynamic logits differ";
    }
  }
}

TEST(MemoryPlanTest, PlannedFetchesNeverMissAcrossGeometries) {
  const PlanningOverrideGuard guard;
  runtime::set_num_threads(1);
  // Geometry sweep: both Table-1 structures at several widths and input
  // sides. Every planned fetch must hit its extent -- the planner's model
  // of the kernels' scratch requests has to be exact, not approximate.
  support::Rng rng(7);
  for (const int id : {1, 2}) {
    for (const float width : {0.125F, 0.25F}) {
      for (const std::int64_t side : {16, 24}) {
        auto model = make_model(id, width, 31);
        const auto network = inference::QuantizedNetwork::compile(
            *model, Shape{1, 3, side, side});
        ASSERT_NE(network.memory_plan(), nullptr);
        auto& arena = runtime::ScratchArena::current();
        arena.reset_plan_counters();
        const Tensor image = Tensor::randn(Shape{3, side, side}, rng);
        (void)network.run(image);
        EXPECT_EQ(arena.plan_misses(), 0U)
            << "network " << id << " width " << width << " side " << side;
        EXPECT_GT(arena.planned_hits(), 0U)
            << "network " << id << " width " << width << " side " << side;
      }
    }
  }
}

TEST(MemoryPlanTest, ArtifactRoundTripKeepsPlanAndLogits) {
  const PlanningOverrideGuard guard;
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
  ASSERT_NE(compiled.memory_plan(), nullptr);
  {
    const serialize::ArtifactModel artifact =
        serialize::ArtifactModel::load(path);
    // The plan is rebuilt in-loader (format stays v1), and its layout is
    // as sound as the in-process one.
    const inference::MemoryPlan* plan = artifact.network().memory_plan();
    ASSERT_NE(plan, nullptr);
    expect_sound_layout(plan->layout().intervals(),
                        plan->layout().capacity_bytes(), "artifact");
    EXPECT_EQ(plan->arena_capacity_bytes(),
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

TEST(MemoryPlanTest, PlanningOverrideWins) {
  const PlanningOverrideGuard guard;
  inference::set_memory_planning_override(0);
  EXPECT_FALSE(inference::memory_planning_enabled());
  inference::set_memory_planning_override(1);
  EXPECT_TRUE(inference::memory_planning_enabled());
}

TEST(MemoryPlanTest, ProfileReportsPlannedScratch) {
  const PlanningOverrideGuard guard;
  runtime::set_num_threads(1);
  auto model = make_model(1, 0.125F, 19);
  const auto network =
      inference::QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  ASSERT_NE(network.memory_plan(), nullptr);
  support::Rng rng(3);
  const Tensor image = Tensor::randn(Shape{3, 16, 16}, rng);
  const auto steps = network.profile(image, /*repeats=*/1);
  bool any_scratch = false;
  for (const auto& step : steps) {
    if (step.planned_scratch_bytes > 0) {
      any_scratch = true;
      EXPECT_NE(step.planned_layout, "-") << step.name;
    }
  }
  EXPECT_TRUE(any_scratch) << "no step reported planned scratch";
}

}  // namespace
}  // namespace flightnn
