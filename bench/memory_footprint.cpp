// Memory footprint of the inference runtime (DESIGN.md §15): the memory
// plan's claimed per-thread memory vs what execution actually holds. A
// Table-1 CIFAR-10 network is warmed and run over a batch, and the bench
// records:
//
//   - the plan's arena capacity (largest offset table + largest code
//     plane + largest input's int8 codes, from the load-time walk) vs the
//     arena slots measured after warm + run (must agree within alignment
//     slack),
//   - the plan's activation pool bytes vs what a fresh thread's tensor pool
//     holds after warm + one forward pass (must agree exactly),
//   - process peak RSS at cold start, after compile, and at steady state
//     (getrusage; the whole-process view the OS bills).
//
//   $ ./bench/memory_footprint [--batch N] [--repeats R] [--width-scale S]
//                              [--json PATH] [--smoke]
//
// Measurements land in BENCH_memory.json stamped with the git revision.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/quantize_model.hpp"
#include "inference/memory_plan.hpp"
#include "inference/quantized_network.hpp"
#include "inference/shift_kernels.hpp"
#include "models/networks.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "support/argparse.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "tensor/buffer_pool.hpp"

int main(int argc, char** argv) {
  using namespace flightnn;
  support::ArgParser parser("memory_footprint",
                            "planned-arena bytes vs measured footprint");
  parser.add_flag("--batch", "images per inference batch", "32");
  parser.add_flag("--repeats", "batches run before the steady-state reading",
                  "5");
  parser.add_flag("--width-scale", "channel-width multiplier of network 1",
                  "0.25");
  parser.add_flag("--json", "result file path", "BENCH_memory.json");
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto smoke_it = std::find(args.begin(), args.end(), "--smoke");
  const bool smoke = smoke_it != args.end();
  if (smoke) args.erase(smoke_it);
  if (!parser.parse(args)) {
    std::fprintf(stderr,
                 "%s\n%s  --smoke: CI-sized run (tiny batch, one repeat)\n",
                 parser.error().c_str(), parser.usage().c_str());
    return 1;
  }
  const std::int64_t batch = smoke ? 4 : parser.get_int("--batch");
  const int repeats = smoke ? 1 : parser.get_int("--repeats");

  const long long rss_cold_kib = bench::peak_rss_kib();

  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = static_cast<float>(parser.get_double("--width-scale"));
  build.seed = 1;
  auto model = models::build_network(models::table1_network(1), build);
  core::install_lightnn(*model, 2);

  runtime::set_num_threads(1);
  const auto network = inference::QuantizedNetwork::compile(
      *model, tensor::Shape{1, 3, 32, 32});
  const inference::MemoryPlan& plan = *network.memory_plan();
  const long long rss_compiled_kib = bench::peak_rss_kib();
  const runtime::BatchRunner runner(network);

  support::Rng rng(2);
  runtime::InferenceRequest request;
  request.images.reserve(static_cast<std::size_t>(batch));
  for (std::int64_t i = 0; i < batch; ++i) {
    request.images.push_back(
        tensor::Tensor::randn(tensor::Shape{3, 32, 32}, rng));
  }

  // --- Arena, measured -----------------------------------------------------
  // Trim the arena (compile's float forward left the GEMM pack slot sized)
  // so the footprint after warm + run is the inference scratch alone.
  runtime::ScratchArena::current().trim();
  runner.warm(static_cast<std::size_t>(batch));
  runtime::InferenceResult result;
  runner.run(request, result);
  const std::size_t measured =
      runtime::ScratchArena::current().footprint_bytes();
  const std::size_t capacity = plan.arena_capacity_bytes();
  const double measured_over_planned =
      capacity == 0 ? 1.0
                    : static_cast<double>(measured) /
                          static_cast<double>(capacity);
  const std::size_t alignment_slack = runtime::kArenaAlignment;
  if (measured > capacity + alignment_slack ||
      measured + alignment_slack < capacity) {
    std::fprintf(stderr,
                 "FATAL: arena measured %zu bytes after warm + run, plan "
                 "claimed %zu (+-%zu slack)\n",
                 measured, capacity, alignment_slack);
    return 1;
  }
  for (int r = 0; r < repeats; ++r) runner.run(request, result);
  const long long rss_steady_kib = bench::peak_rss_kib();

  // --- Activation pool, measured ---------------------------------------------
  // A fresh thread's pool holds nothing until warm parks the plan's working
  // set there; one forward pass must then take every buffer from it and give
  // each back, leaving exactly the planned bytes.
  std::size_t pool_measured = 0;
  std::thread fresh([&] {
    plan.warm_thread();
    { const tensor::Tensor logits = network.run(request.images[0]); }
    pool_measured = tensor::pool::stats().cached_bytes;
  });
  fresh.join();
  const std::size_t pool_planned = plan.activation_pool_bytes();
  if (pool_measured != pool_planned) {
    std::fprintf(stderr,
                 "FATAL: a fresh thread's tensor pool holds %zu bytes after "
                 "warm + run, plan claimed %zu\n",
                 pool_measured, pool_planned);
    return 1;
  }

  // --- Report --------------------------------------------------------------
  const auto kib = [](std::size_t bytes) {
    return static_cast<double>(bytes) / 1024.0;
  };
  support::Table table({"quantity", "bytes", "KiB"});
  table.add_row({"planned arena capacity", std::to_string(capacity),
                 support::format_fixed(kib(capacity), 1)});
  table.add_row({"arena measured after warm + run", std::to_string(measured),
                 support::format_fixed(kib(measured), 1)});
  table.add_row({"planned activation pool", std::to_string(pool_planned),
                 support::format_fixed(kib(pool_planned), 1)});
  table.add_row({"pool measured after warm + run",
                 std::to_string(pool_measured),
                 support::format_fixed(kib(pool_measured), 1)});
  table.add_row({"planned per-thread total",
                 std::to_string(plan.planned_per_thread_bytes()),
                 support::format_fixed(kib(plan.planned_per_thread_bytes()),
                                       1)});
  std::printf("batch=%lld repeats=%d%s\n\n%s\n",
              static_cast<long long>(batch), repeats, smoke ? " (smoke)" : "",
              table.to_string().c_str());
  std::printf("measured/planned arena ratio: %.3f (alignment slack only)\n",
              measured_over_planned);
  std::printf(
      "peak RSS: %lld KiB cold -> %lld KiB compiled -> %lld KiB steady "
      "(cold-start delta %lld KiB)\n",
      rss_cold_kib, rss_compiled_kib, rss_steady_kib,
      rss_steady_kib - rss_cold_kib);

  // --- Result file ---------------------------------------------------------
  const char* active_tier =
      inference::kernel_tier_name(inference::active_shift_kernels().tier);
  bench::JsonObject out;
  out.add_string("bench", "memory");
  out.add_string("git_sha", bench::git_sha());
  out.add_bool("smoke", smoke);
  out.add_int("batch", batch);
  out.add_int("repeats", repeats);
  out.add_number("width_scale", parser.get_double("--width-scale"));
  out.add_int("planned_arena_capacity_bytes",
              static_cast<long long>(capacity));
  out.add_int("planned_arena_measured_bytes",
              static_cast<long long>(measured));
  out.add_number("measured_over_planned_ratio", measured_over_planned);
  out.add_int("planned_activation_pool_bytes",
              static_cast<long long>(pool_planned));
  out.add_int("activation_pool_measured_bytes",
              static_cast<long long>(pool_measured));
  out.add_int("planned_per_thread_bytes",
              static_cast<long long>(plan.planned_per_thread_bytes()));
  out.add_int("rss_cold_kib", rss_cold_kib);
  out.add_int("rss_compiled_kib", rss_compiled_kib);
  out.add_int("rss_steady_kib", rss_steady_kib);
  out.add_int("rss_cold_start_delta_kib", rss_steady_kib - rss_cold_kib);
  bench::add_host_info(out, active_tier);
  const std::string json_path = parser.get("--json");
  if (!bench::write_json_file(json_path, out)) {
    std::fprintf(stderr, "FATAL: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
