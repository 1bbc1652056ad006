// google-benchmark microbenchmarks for the compute kernels: quantizers,
// the shift-add inference engine vs the float reference and im2col+GEMM
// convolutions, and the Fig. 3 decomposition. These quantify the CPU-side
// costs; the hardware win of shifts is modeled in hw/. On a CPU the engine
// runs LightNN weights as exact int8 dot products (the dense tiers), so a
// live filter costs the same for k_i = 1 or 2 and only pruning (k_i = 0)
// saves work; the census the hardware models read still counts k_i.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/decompose.hpp"
#include "core/flightnn_transform.hpp"
#include "inference/shift_engine.hpp"
#include "inference/shift_kernels.hpp"
#include "nn/conv2d.hpp"
#include "quant/lightnn.hpp"
#include "runtime/thread_pool.hpp"
#include "support/rng.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace flightnn;

tensor::Tensor random_weights(std::int64_t out_ch, std::int64_t in_ch,
                              std::uint64_t seed) {
  support::Rng rng(seed);
  return tensor::Tensor::randn(tensor::Shape{out_ch, in_ch, 3, 3}, rng, 0.0F,
                               0.3F);
}

// LightNN-k quantization of a [filters, filters, 3, 3] layer on one thread:
// k peel levels (quant::peel_level) over every weight. Args: k, filters
// (64 is the widest conv of VGG-7 w1.0 and of ResNet-18 w0.5; 256 gives a
// layer 16x larger). The time per item over k is the per-level cost hint
// of quantize_lightnn's parallel_for.
void BM_QuantizeLightNN(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  tensor::Tensor w = random_weights(state.range(1), state.range(1), 1);
  const quant::Pow2Config config;
  runtime::set_num_threads(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::quantize_lightnn(w, k, config));
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_QuantizeLightNN)
    ->Args({1, 256})
    ->Args({2, 256})
    ->Args({3, 256})
    ->Args({2, 64});

void BM_QuantizeFLightNN(benchmark::State& state) {
  tensor::Tensor w = random_weights(64, 64, 2);
  core::FLightNNTransform transform;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform.forward(w));
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_QuantizeFLightNN);

void BM_FLightNNThresholdBackward(benchmark::State& state) {
  tensor::Tensor w = random_weights(64, 64, 3);
  core::FLightNNTransform transform;
  support::Rng rng(4);
  tensor::Tensor grad_wq = tensor::Tensor::randn(w.shape(), rng);
  tensor::Tensor grad_w(w.shape());
  for (auto _ : state) {
    transform.zero_internal_grads();
    transform.backward(w, grad_wq, grad_w);
    benchmark::DoNotOptimize(transform.threshold_grads());
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_FLightNNThresholdBackward);

void BM_Decompose(benchmark::State& state) {
  tensor::Tensor w = random_weights(64, 64, 5);
  const quant::Pow2Config config;
  tensor::Tensor wq = quant::quantize_lightnn(w, 2, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decompose_to_lightnn1(wq, 2, config));
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_Decompose);

void BM_ShiftEngineConv(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  support::Rng rng(6);
  const quant::Pow2Config config;
  tensor::Tensor w = random_weights(32, 32, 7);
  tensor::Tensor wq = quant::quantize_lightnn(w, k, config);
  tensor::Tensor img = tensor::Tensor::randn(tensor::Shape{32, 16, 16}, rng);
  const auto qimg = inference::quantize_image(img, 8);
  inference::ShiftConv2d engine(wq, k, config, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(qimg));
  }
  // One "item" = one MAC-equivalent.
  state.SetItemsProcessed(state.iterations() * 32 * 32 * 16 * 16 * 9);
}
BENCHMARK(BM_ShiftEngineConv)->Arg(1)->Arg(2);

// Pruning payoff: the same layer with a fraction of its filters pruned to
// zero. Arg is the pruned percentage; the dense kernels skip pruned filters
// (FLightNN's k_i = 0), so 50 should run ~2x faster than 0.
void BM_ShiftEngineConvSparse(benchmark::State& state) {
  const auto pruned_percent = static_cast<std::int64_t>(state.range(0));
  support::Rng rng(6);
  const quant::Pow2Config config;
  tensor::Tensor w = random_weights(32, 32, 7);
  tensor::Tensor wq = quant::quantize_lightnn(w, 2, config);
  const std::int64_t pruned_filters = 32 * pruned_percent / 100;
  const std::int64_t filter_numel = 32 * 3 * 3;
  for (std::int64_t f = 0; f < pruned_filters; ++f) {
    float* row = wq.data() + f * filter_numel;
    for (std::int64_t i = 0; i < filter_numel; ++i) row[i] = 0.0F;
  }
  tensor::Tensor img = tensor::Tensor::randn(tensor::Shape{32, 16, 16}, rng);
  const auto qimg = inference::quantize_image(img, 8);
  inference::ShiftConv2d engine(wq, 2, config, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(qimg));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32 * 16 * 16 * 9);
}
BENCHMARK(BM_ShiftEngineConvSparse)->Arg(0)->Arg(50)->Arg(90);

// One-time set-up cost of a layer, amortized over an engine's lifetime, in
// its two steps: compile_conv's lowering of the quantized weights into the
// int8 pack, then adoption's one pass over the words (adopt_plan), which
// every load path runs.
void BM_PlanCompile(benchmark::State& state) {
  const quant::Pow2Config config;
  tensor::Tensor w = random_weights(64, 64, 13);
  tensor::Tensor wq = quant::quantize_lightnn(w, 2, config);
  for (auto _ : state) {
    inference::CompiledPlan compiled =
        inference::ShiftPlan::compile_conv(wq, 2, config);
    benchmark::DoNotOptimize(compiled.plan.words.data());
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_PlanCompile);

// Adoption of a plan copy, as each artifact load adopts the arrays it
// copied out.
void BM_PlanAdopt(benchmark::State& state) {
  const quant::Pow2Config config;
  tensor::Tensor w = random_weights(64, 64, 13);
  tensor::Tensor wq = quant::quantize_lightnn(w, 2, config);
  const inference::ShiftPlan plan =
      inference::ShiftPlan::compile_conv(wq, 2, config).plan;
  for (auto _ : state) {
    const inference::AdoptedPlan adopted =
        inference::adopt_plan(plan, 64, 64, 3, config);
    benchmark::DoNotOptimize(adopted.correction.data());
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_PlanAdopt);

// The same plan executed under a pinned kernel tier (Arg: 0 = scalar,
// 1 = AVX2, 2 = AVX-512 VNNI; a tier the host lacks falls back to scalar).
// The ratio Arg(0)/Arg(n) is the per-layer vectorization speedup; the
// machine-readable per-tier rows land in BENCH_shift_engine.json (see
// emit_kernel_tier_rows below).
void BM_ShiftEngineConvTier(benchmark::State& state) {
  const int tier = static_cast<int>(state.range(0));
  support::Rng rng(6);
  const quant::Pow2Config config;
  tensor::Tensor w = random_weights(32, 32, 7);
  tensor::Tensor wq = quant::quantize_lightnn(w, 2, config);
  tensor::Tensor img = tensor::Tensor::randn(tensor::Shape{32, 16, 16}, rng);
  const auto qimg = inference::quantize_image(img, 8);
  inference::ShiftConv2d engine(wq, 2, config, 1, 1);
  inference::set_kernel_tier_override(tier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(qimg));
  }
  inference::set_kernel_tier_override(-1);
  state.SetItemsProcessed(state.iterations() * 32 * 32 * 16 * 16 * 9);
}
BENCHMARK(BM_ShiftEngineConvTier)->Arg(0)->Arg(1)->Arg(2);

// Same shift-add convolution with the output-filter blocks fanned out over
// the runtime pool. Arg is the thread count; Arg(1) should match
// BM_ShiftEngineConv/2 (the serial fast path) to within noise.
void BM_ShiftEngineConvParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  support::Rng rng(6);
  const quant::Pow2Config config;
  tensor::Tensor w = random_weights(32, 32, 7);
  tensor::Tensor wq = quant::quantize_lightnn(w, 2, config);
  tensor::Tensor img = tensor::Tensor::randn(tensor::Shape{32, 16, 16}, rng);
  const auto qimg = inference::quantize_image(img, 8);
  inference::ShiftConv2d engine(wq, 2, config, 1, 1);
  runtime::set_num_threads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(qimg));
  }
  runtime::set_num_threads(1);
  state.SetItemsProcessed(state.iterations() * 32 * 32 * 16 * 16 * 9);
}
BENCHMARK(BM_ShiftEngineConvParallel)->Arg(1)->Arg(2)->Arg(4);

// Batched float Conv2d forward (training-path kernel), parallel across the
// batch dimension. Arg is the thread count.
void BM_Conv2dForwardBatchParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  support::Rng rng(12);
  nn::Conv2d conv(16, 16, 3, 1, 1, /*with_bias=*/true, rng);
  tensor::Tensor x =
      tensor::Tensor::randn(tensor::Shape{8, 16, 16, 16}, rng);
  runtime::set_num_threads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
  runtime::set_num_threads(1);
  state.SetItemsProcessed(state.iterations() * 8 * 16 * 16 * 16 * 16 * 9);
}
BENCHMARK(BM_Conv2dForwardBatchParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_ReferenceFloatConv(benchmark::State& state) {
  support::Rng rng(8);
  tensor::Tensor w = random_weights(32, 32, 9);
  tensor::Tensor img = tensor::Tensor::randn(tensor::Shape{32, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(inference::reference_conv(w, img, 1, 1));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32 * 16 * 16 * 9);
}
BENCHMARK(BM_ReferenceFloatConv);

void BM_Im2ColGemmConv(benchmark::State& state) {
  support::Rng rng(10);
  tensor::Tensor w = random_weights(32, 32, 11);
  tensor::Tensor img = tensor::Tensor::randn(tensor::Shape{32, 16, 16}, rng);
  const tensor::ConvGeometry geom{32, 16, 16, 3, 1, 1};
  std::vector<float> cols(
      static_cast<std::size_t>(geom.patch_size() * geom.out_h() * geom.out_w()));
  tensor::Tensor out(tensor::Shape{32, geom.out_h(), geom.out_w()});
  for (auto _ : state) {
    tensor::im2col(img.data(), geom, cols.data());
    tensor::gemm(w.data(), cols.data(), out.data(), 32, geom.patch_size(),
                 geom.out_h() * geom.out_w());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32 * 16 * 16 * 9);
}
BENCHMARK(BM_Im2ColGemmConv);

// The small-plane layers of VGG-7, ResNet-18 and the tiny FLightNN, two
// wide planes and the networks' linear layers (a 1x1 conv on a 1x1 plane,
// as the compiled network runs them), each run (ShiftConv2d::run:
// code-plane fill, kernel, dequantize) on both tiles of every vector tier
// the host has, one thread, round-robin over the (tier, tile) pairs. Each
// tile must give the scalar tier's bytes. A row names the layer, its output
// plane, the two times, the filter tile's speedup over the column tile and
// the tile pick_conv_tile chooses; the speedups are what the rule's cost
// ratios are read from.
bool small_plane_rows(const std::vector<inference::KernelTier>& tiers,
                      int repeats, std::vector<std::string>& rows) {
  struct Layer {
    const char* name;
    std::int64_t in_ch, out_ch, live, side, stride, kernel;
  };
  const Layer layers[] = {
      {"64->64", 64, 64, 64, 4, 1, 3},
      {"32->64 s2", 32, 64, 64, 8, 2, 3},
      {"32->32", 32, 32, 32, 8, 1, 3},
      {"32->64", 32, 64, 64, 8, 1, 3},
      {"16->32 s2", 16, 32, 32, 16, 2, 3},
      {"16->16 12 live", 16, 16, 12, 4, 1, 3},
      {"8->16 12 live", 8, 16, 12, 8, 1, 3},
      {"16->16", 16, 16, 16, 16, 1, 3},
      {"8->8", 8, 8, 8, 32, 1, 3},
      {"linear 64->10", 64, 10, 10, 1, 1, 1},
      {"linear 16->10", 16, 10, 10, 1, 1, 1},
      {"linear 256->64", 256, 64, 64, 1, 1, 1}};
  const quant::Pow2Config config;
  support::Rng rng(22);
  for (const Layer& layer : layers) {
    support::Rng weight_rng(23);
    tensor::Tensor wq = quant::quantize_lightnn(
        tensor::Tensor::randn(tensor::Shape{layer.out_ch, layer.in_ch,
                                            layer.kernel, layer.kernel},
                              weight_rng, 0.0F, 0.3F),
        2, config);
    // Pruned filters (k_i = 0) leave `live` of them.
    const std::int64_t row = layer.in_ch * layer.kernel * layer.kernel;
    for (std::int64_t f = layer.live; f < layer.out_ch; ++f) {
      std::fill(wq.data() + f * row, wq.data() + (f + 1) * row, 0.0F);
    }
    const inference::ShiftConv2d conv(wq, 2, config, layer.stride,
                                      layer.kernel / 2);
    const auto qimg = inference::quantize_image(
        tensor::Tensor::randn(
            tensor::Shape{layer.in_ch, layer.side, layer.side}, rng),
        8);
    const std::int64_t out_side = (layer.side - 1) / layer.stride + 1;
    inference::set_kernel_tier_override(0);
    const tensor::Tensor scalar_out = conv.run(qimg);
    const std::size_t bytes =
        static_cast<std::size_t>(scalar_out.numel()) * sizeof(float);
    constexpr inference::ConvTile kTiles[] = {inference::ConvTile::kColumn,
                                              inference::ConvTile::kFilter};
    std::vector<std::vector<double>> samples(2 * tiers.size());
    for (int r = 0; r < 4 * repeats; ++r) {
      for (std::size_t i = 1; i < tiers.size(); ++i) {
        inference::set_kernel_tier_override(static_cast<int>(tiers[i]));
        for (int tile = 0; tile < 2; ++tile) {
          const auto start = std::chrono::steady_clock::now();
          const tensor::Tensor out = conv.run(qimg, kTiles[tile]);
          const auto stop = std::chrono::steady_clock::now();
          if (std::memcmp(out.data(), scalar_out.data(), bytes) != 0) {
            std::fprintf(stderr,
                         "FATAL: %s %s tile differs from scalar on %s\n",
                         inference::kernel_tier_name(tiers[i]),
                         inference::conv_tile_name(kTiles[tile]), layer.name);
            inference::set_kernel_tier_override(-1);
            return false;
          }
          samples[2 * i + static_cast<std::size_t>(tile)].push_back(
              std::chrono::duration<double>(stop - start).count());
        }
      }
    }
    inference::set_kernel_tier_override(-1);
    for (std::size_t i = 1; i < tiers.size(); ++i) {
      auto median_us = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2] * 1e6;
      };
      const double column_us = median_us(samples[2 * i]);
      const double filter_us = median_us(samples[2 * i + 1]);
      const char* picked = inference::conv_tile_name(
          inference::pick_conv_tile(tiers[i], out_side, out_side,
                                    layer.live));
      bench::JsonObject row;
      row.add_string("tier", inference::kernel_tier_name(tiers[i]));
      row.add_string("layer", layer.name);
      row.add_int("out_side", out_side);
      row.add_int("live", layer.live);
      row.add_number("column_tile_us", column_us);
      row.add_number("filter_tile_us", filter_us);
      row.add_number("filter_speedup", column_us / filter_us);
      row.add_string("picked", picked);
      rows.push_back(row.to_string(4));
      std::printf("%s %-15s %2lldx%-2lld live %3lld: column %8.2f us, filter "
                  "%8.2f us (%.2fx), picks %s\n",
                  inference::kernel_tier_name(tiers[i]), layer.name,
                  static_cast<long long>(out_side),
                  static_cast<long long>(out_side),
                  static_cast<long long>(layer.live), column_us, filter_us,
                  column_us / filter_us, picked);
    }
  }
  return true;
}

// Per-tier rows, spliced into the BENCH_shift_engine.json that
// throughput_scaling writes so the kernel numbers live next to the
// whole-network numbers instead of stdout-only. Measures one conv layer
// (the dispatched dense kernel over every output pixel, plus the code-plane
// fill and dequantize every tier shares) under every tier the host has,
// asserting byte-identical output; falls back to a standalone file when the
// target does not exist.
int emit_kernel_tier_rows(const std::string& path, bool smoke) {
  runtime::set_num_threads(1);
  const int repeats = smoke ? 5 : 25;
  const quant::Pow2Config config;
  support::Rng rng(21);

  tensor::Tensor wc = random_weights(32, 32, 7);
  tensor::Tensor wcq = quant::quantize_lightnn(wc, 2, config);
  const inference::ShiftConv2d conv(wcq, 2, config, 1, 1);
  tensor::Tensor img = tensor::Tensor::randn(tensor::Shape{32, 32, 32}, rng);
  const auto qimg = inference::quantize_image(img, 8);

  std::vector<inference::KernelTier> tiers{inference::KernelTier::kScalar};
  for (const auto tier :
       {inference::KernelTier::kAvx2, inference::KernelTier::kVnni}) {
    if (inference::shift_kernels_for(tier).tier == tier) tiers.push_back(tier);
  }
  inference::set_kernel_tier_override(0);
  const tensor::Tensor scalar_out = conv.run(qimg);
  for (const inference::KernelTier tier : tiers) {
    inference::set_kernel_tier_override(static_cast<int>(tier));
    const tensor::Tensor out = conv.run(qimg);
    if (std::memcmp(out.data(), scalar_out.data(),
                    static_cast<std::size_t>(out.numel()) * sizeof(float)) !=
        0) {
      std::fprintf(stderr, "FATAL: the %s tier's output differs from scalar\n",
                   inference::kernel_tier_name(tier));
      return 1;
    }
  }

  // Round-robin sampling: one run per tier, repeated, so slow clock drift
  // (turbo ramp-up, VM steal time) hits every tier equally -- block-wise
  // timing systematically favors whichever tier runs later.
  std::vector<std::vector<double>> samples(tiers.size());
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      inference::set_kernel_tier_override(static_cast<int>(tiers[i]));
      const auto start = std::chrono::steady_clock::now();
      (void)conv.run(qimg);
      const auto stop = std::chrono::steady_clock::now();
      samples[i].push_back(std::chrono::duration<double>(stop - start).count());
    }
  }
  inference::set_kernel_tier_override(-1);
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double scalar_s = median(samples[0]);
  std::vector<std::string> tier_rows;
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const double tier_s = median(samples[i]);
    bench::JsonObject row;
    row.add_string("tier", inference::kernel_tier_name(tiers[i]));
    row.add_number("conv_layer_ms", tier_s * 1e3);
    row.add_number("speedup_vs_scalar", scalar_s / tier_s);
    tier_rows.push_back(row.to_string(2));
    std::printf("%s conv layer: %.3f ms (%.2fx scalar, bit-identical)\n",
                inference::kernel_tier_name(tiers[i]), tier_s * 1e3,
                scalar_s / tier_s);
  }
  std::vector<std::string> plane_rows;
  if (!small_plane_rows(tiers, repeats, plane_rows)) return 1;
  bench::JsonObject rows;
  rows.add_int("repeats", repeats);
  rows.add("tiers", bench::json_array(tier_rows));
  rows.add_bool("tiers_bit_identical", true);
  rows.add("small_plane_rows", bench::json_array(plane_rows));

  if (bench::merge_into_json_file(path, "kernels_microbench", rows)) {
    std::printf("merged kernel tier rows into %s\n", path.c_str());
  } else {
    bench::JsonObject out;
    out.add_string("bench", "kernels_microbench");
    out.add_string("git_sha", bench::git_sha());
    bench::add_host_info(out, inference::kernel_tier_name(
                                  inference::active_shift_kernels().tier));
    out.add("kernels_microbench", rows.to_string(2));
    const std::string fallback = "BENCH_kernels_microbench.json";
    if (!bench::write_json_file(fallback, out)) {
      std::fprintf(stderr, "FATAL: could not write %s\n", fallback.c_str());
      return 1;
    }
    std::printf("%s not found; wrote kernel tier rows to %s\n", path.c_str(),
                fallback.c_str());
  }
  return 0;
}

}  // namespace

// Custom main so CI can pass a bare `--smoke` switch (it becomes a short
// minimum measuring time, keeping the full suite under a few seconds) and
// `--bench-json PATH` (the BENCH_shift_engine.json to splice the kernel
// tier rows into; default looks in the working directory).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string bench_json = "BENCH_shift_engine.json";
  const auto json_it = std::find_if(args.begin(), args.end(), [](char* arg) {
    return std::strcmp(arg, "--bench-json") == 0;
  });
  if (json_it != args.end() && json_it + 1 != args.end()) {
    bench_json = *(json_it + 1);
    args.erase(json_it, json_it + 2);
  }
  char min_time[] = "--benchmark_min_time=0.01";
  const auto smoke = std::find_if(args.begin(), args.end(), [](char* arg) {
    return std::strcmp(arg, "--smoke") == 0;
  });
  const bool is_smoke = smoke != args.end();
  if (is_smoke) *smoke = min_time;
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return emit_kernel_tier_rows(bench_json, is_smoke);
}
