// Throughput of the compiled shift-plan runtime: images/second of a Table-1
// CIFAR-10 network (id 1, VGG-7/64) swept over thread counts, the
// whole-network scalar-vs-active tier comparison, one dense conv layer and
// its kernel under every tier the host has, and the pruning payoff of a
// 50%-pruned layer vs its dense twin. The parallelism is across batch
// elements (BatchRunner) composed with output-filter blocks inside each
// kernel, all drawing from one shared pool -- so scaling reflects the whole
// runtime, not a single kernel.
//
//   $ ./bench/throughput_scaling [--batch N] [--repeats R] [--width-scale S]
//                                [--json PATH] [--smoke]
//
// Results are bit-identical across thread counts and tiers (asserted, FATAL
// otherwise), so the timings are the only thing that changes. Measurements
// land in a BENCH_shift_engine.json file stamped with the git revision.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/quantize_model.hpp"
#include "inference/quantized_network.hpp"
#include "inference/shift_engine.hpp"
#include "inference/shift_kernels.hpp"
#include "inference/shift_plan.hpp"
#include "models/networks.hpp"
#include "quant/lightnn.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "runtime/thread_pool.hpp"
#include "support/argparse.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace flightnn;

double run_once(const runtime::BatchRunner& runner,
                const runtime::InferenceRequest& request, int repeats,
                std::vector<tensor::Tensor>* logits_out) {
  // One warm-up pass (pool spin-up, cache warming), then timed repeats into
  // a reused result -- the zero-allocation steady state the runtime is
  // built around.
  runtime::InferenceResult result;
  runner.run(request, result);
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) {
    runner.run(request, result);
  }
  const auto stop = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration<double>(stop - start).count() / repeats;
  if (logits_out != nullptr) *logits_out = std::move(result.logits);
  return static_cast<double>(request.images.size()) / seconds;
}

bool bitwise_equal(const std::vector<tensor::Tensor>& a,
                   const std::vector<tensor::Tensor>& b) {
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

// Median-of-repeats wall time of one engine run, in seconds.
template <typename Fn>
double time_layer(int repeats, const Fn& fn) {
  fn();  // warm-up
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(stop - start).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser parser("throughput_scaling",
                            "img/s of a Table-1 CIFAR-10 network vs threads");
  parser.add_flag("--batch", "images per inference batch", "32");
  parser.add_flag("--repeats", "timed repetitions per thread count", "3");
  parser.add_flag("--width-scale", "channel-width multiplier of network 1",
                  "0.25");
  parser.add_flag("--json", "result file path", "BENCH_shift_engine.json");
  std::vector<std::string> args(argv + 1, argv + argc);
  // --smoke is a bare switch: tiny batch / single repeat, for CI.
  const auto smoke_it = std::find(args.begin(), args.end(), "--smoke");
  const bool smoke = smoke_it != args.end();
  if (smoke) args.erase(smoke_it);
  if (!parser.parse(args)) {
    std::fprintf(stderr, "%s\n%s  --smoke: CI-sized run (tiny batch, one repeat)\n",
                 parser.error().c_str(), parser.usage().c_str());
    return 1;
  }
  const std::int64_t batch = smoke ? 4 : parser.get_int("--batch");
  const int repeats = smoke ? 1 : parser.get_int("--repeats");
  const int layer_repeats = smoke ? 3 : 15;

  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = static_cast<float>(parser.get_double("--width-scale"));
  build.seed = 1;
  auto model = models::build_network(models::table1_network(1), build);
  core::install_lightnn(*model, 2);

  runtime::set_num_threads(1);
  const auto network = inference::QuantizedNetwork::compile(
      *model, tensor::Shape{1, 3, 32, 32});
  const runtime::BatchRunner runner(network);
  std::printf("plan: %s\n", network.describe().c_str());

  support::Rng rng(2);
  runtime::InferenceRequest request;
  request.images.reserve(static_cast<std::size_t>(batch));
  for (std::int64_t i = 0; i < batch; ++i) {
    request.images.push_back(
        tensor::Tensor::randn(tensor::Shape{3, 32, 32}, rng));
  }

  // The host's CPUs, not runtime::num_threads(): the pool was pinned to one
  // thread above.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> sweep{1, 2, 4};
  if (hw > 4) sweep.push_back(hw);

  // --- Thread sweep (compiled plan) --------------------------------------
  support::Table table({"threads", "img/s", "speedup vs 1", "bit-identical"});
  std::vector<std::string> sweep_json;
  double baseline = 0.0;
  std::vector<tensor::Tensor> reference;
  for (const int threads : sweep) {
    runtime::set_num_threads(threads);
    std::vector<tensor::Tensor> logits;
    const double throughput = run_once(runner, request, repeats, &logits);
    if (threads == 1) {
      baseline = throughput;
      reference = std::move(logits);
    }
    const bool identical =
        threads == 1 || bitwise_equal(reference, logits);
    table.add_row({std::to_string(threads),
                   support::format_fixed(throughput, 1),
                   support::format_fixed(throughput / baseline, 2),
                   identical ? "yes" : "NO (BUG)"});
    bench::JsonObject point;
    point.add_int("threads", threads);
    point.add_number("img_per_s", throughput);
    point.add_number("speedup_vs_1", throughput / baseline);
    sweep_json.push_back(point.to_string(2));
    if (!identical) {
      std::fprintf(stderr, "FATAL: %d-thread output differs from serial\n",
                   threads);
      return 1;
    }
  }

  // --- Whole network, 1 thread, active tier --------------------------------
  runtime::set_num_threads(1);
  const double plan_img_s = run_once(runner, request, repeats, nullptr);

  // --- Sparsity payoff on one conv layer -----------------------------------
  // Dense 32x32x3x3 layer vs the same layer with half its filters pruned:
  // the dense kernels skip a pruned filter (k_i = 0) outright, so the pruned
  // layer should run close to 2x faster.
  const quant::Pow2Config pow2;
  support::Rng layer_rng(3);
  tensor::Tensor w = tensor::Tensor::randn(tensor::Shape{32, 32, 3, 3},
                                           layer_rng, 0.0F, 0.3F);
  tensor::Tensor wq_dense = quant::quantize_lightnn(w, 2, pow2);
  tensor::Tensor wq_pruned(wq_dense);
  const std::int64_t filter_numel = 32 * 3 * 3;
  for (std::int64_t f = 0; f < 16; ++f) {
    float* row = wq_pruned.data() + f * filter_numel;
    std::fill(row, row + filter_numel, 0.0F);
  }
  const inference::ShiftConv2d dense(wq_dense, 2, pow2, 1, 1);
  const inference::ShiftConv2d pruned(wq_pruned, 2, pow2, 1, 1);
  tensor::Tensor layer_img =
      tensor::Tensor::randn(tensor::Shape{32, 32, 32}, layer_rng);
  const auto qimg = inference::quantize_image(layer_img, 8);
  const inference::AdoptedPlan& pack = dense.adopted();
  const char* active_tier =
      inference::kernel_tier_name(inference::active_shift_kernels().tier);
  const double dense_s = time_layer(layer_repeats, [&] { (void)dense.run(qimg); });
  const double pruned_s =
      time_layer(layer_repeats, [&] { (void)pruned.run(qimg); });
  const double sparse_speedup = dense_s / pruned_s;

  // --- The layer and its kernel under every tier the host has --------------
  // Same engine and pack, only the dispatch tier changes (the test override
  // pins it per sample, round-robin over the tiers, then clears). The layer
  // time includes the code-plane fill, the tap table and the dequantize,
  // which run identical code on every tier; the kernel time is the
  // dispatched kernel alone over the same code plane (padding 1, stride 1:
  // 34x34 words per four-channel group, pad cells q = 0), on the tile and
  // in the units run() takes. Every tier must match the scalar tier byte
  // for byte.
  std::vector<inference::KernelTier> tiers{inference::KernelTier::kScalar};
  for (const auto tier :
       {inference::KernelTier::kAvx2, inference::KernelTier::kVnni}) {
    if (inference::shift_kernels_for(tier).tier == tier) tiers.push_back(tier);
  }
  const std::int64_t lw = 32;
  const std::int64_t lhw = lw * lw;
  const std::int64_t pw = lw + 2;
  const std::int64_t groups = 32 / 4;
  std::vector<std::uint32_t> codes(static_cast<std::size_t>(groups * pw * pw),
                                   0x80808080U);
  for (std::int64_t c = 0; c < 32; ++c) {
    for (std::int64_t y = 0; y < lw; ++y) {
      for (std::int64_t x = 0; x < lw; ++x) {
        const std::int32_t q = qimg.values[static_cast<std::size_t>((c * lw + y) * lw + x)];
        std::uint32_t& word = codes[static_cast<std::size_t>(
            ((c / 4) * pw + y + 1) * pw + x + 1)];
        const auto bit = static_cast<unsigned>(8 * (c % 4));
        word = (word & ~(0xFFU << bit)) |
               (static_cast<std::uint32_t>(q + 128) & 0xFFU) << bit;
      }
    }
  }
  std::vector<std::int32_t> tap_off;
  for (std::int64_t g = 0; g < groups; ++g) {
    for (std::int64_t ky = 0; ky < 3; ++ky) {
      for (std::int64_t kx = 0; kx < 3; ++kx) {
        tap_off.push_back(static_cast<std::int32_t>(g * pw * pw + ky * pw + kx));
      }
    }
  }
  const auto live = static_cast<std::int64_t>(pack.plan.live.size());
  // The tier's kernel on the tile run() picks for this layer, over the
  // units run() makes: kColumnFilters filters per column-tile call, a block
  // of kFilterBlock per filter-tile call.
  const auto run_kernel = [&](inference::KernelTier tier,
                              std::vector<std::int32_t>& out) {
    const inference::ConvTile tile =
        inference::pick_conv_tile(tier, lw, lw, live);
    const inference::DenseConvFn fn =
        inference::shift_kernels_for(tier).dense_conv(tile);
    const std::int64_t unit = tile == inference::ConvTile::kFilter
                                  ? inference::kFilterBlock
                                  : inference::kColumnFilters;
    const inference::DenseConv conv{codes.data(), tap_off.data(),
                                    pack.plan.words.data(),
                                    pack.correction.data(),
                                    pack.plan.live.data(), out.data(),
                                    pw, lw, lw, pack.taps};
    for (std::int64_t first = 0; first < live; first += unit) {
      fn(conv, first, std::min(first + unit, live));
    }
  };
  inference::set_kernel_tier_override(0);
  const tensor::Tensor scalar_layer_out = dense.run(qimg);
  std::vector<std::int32_t> scalar_kernel_out(static_cast<std::size_t>(live * lhw));
  run_kernel(inference::KernelTier::kScalar, scalar_kernel_out);
  std::vector<std::vector<std::int32_t>> kernel_out(
      tiers.size(), std::vector<std::int32_t>(scalar_kernel_out.size()));
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    inference::set_kernel_tier_override(static_cast<int>(tiers[i]));
    const tensor::Tensor out = dense.run(qimg);
    run_kernel(tiers[i], kernel_out[i]);
    if (std::memcmp(out.data(), scalar_layer_out.data(),
                    static_cast<std::size_t>(out.numel()) * sizeof(float)) != 0 ||
        kernel_out[i] != scalar_kernel_out) {
      std::fprintf(stderr, "FATAL: the %s tier disagrees with the scalar tier\n",
                   inference::kernel_tier_name(tiers[i]));
      return 1;
    }
  }
  std::vector<std::vector<double>> layer_samples(tiers.size());
  std::vector<std::vector<double>> kernel_samples(tiers.size());
  const auto seconds_of = [](const auto& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };
  for (int r = 0; r < layer_repeats; ++r) {
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      inference::set_kernel_tier_override(static_cast<int>(tiers[i]));
      layer_samples[i].push_back(seconds_of([&] { (void)dense.run(qimg); }));
      kernel_samples[i].push_back(
          seconds_of([&] { run_kernel(tiers[i], kernel_out[i]); }));
    }
  }
  inference::set_kernel_tier_override(-1);
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  support::Table tier_table(
      {"tier", "layer ms", "kernel ms", "kernel speedup vs scalar"});
  std::vector<std::string> tier_json;
  const double scalar_kernel_s = median(kernel_samples[0]);
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const double layer_s = median(layer_samples[i]);
    const double kernel_s = median(kernel_samples[i]);
    tier_table.add_row({inference::kernel_tier_name(tiers[i]),
                        support::format_fixed(layer_s * 1e3, 3),
                        support::format_fixed(kernel_s * 1e3, 3),
                        support::format_fixed(scalar_kernel_s / kernel_s, 2)});
    bench::JsonObject row;
    row.add_string("tier", inference::kernel_tier_name(tiers[i]));
    row.add_number("dense_layer_ms", layer_s * 1e3);
    row.add_number("dense_kernel_ms", kernel_s * 1e3);
    row.add_number("kernel_speedup_vs_scalar", scalar_kernel_s / kernel_s);
    tier_json.push_back(row.to_string(2));
  }

  inference::set_kernel_tier_override(0);
  std::vector<tensor::Tensor> scalar_logits;
  const double scalar_img_s =
      run_once(runner, request, repeats, &scalar_logits);
  inference::set_kernel_tier_override(-1);
  // The active tier (thread-sweep baseline `reference`) and the scalar tier
  // must produce byte-identical logits: every tier adds the same integers.
  if (!bitwise_equal(reference, scalar_logits)) {
    std::fprintf(stderr,
                 "FATAL: kernel tiers disagree (vector vs scalar logits)\n");
    return 1;
  }

  std::printf("\nbatch=%lld repeats=%d hardware_concurrency-default=%d%s\n\n%s",
              static_cast<long long>(batch), repeats, hw,
              smoke ? " (smoke)" : "", table.to_string().c_str());
  std::printf("\ndense conv layer: %.3f ms (%s tier)\n", dense_s * 1e3,
              active_tier);
  std::printf("50%%-pruned layer: %.3f ms (%.2fx faster than dense)\n",
              pruned_s * 1e3, sparse_speedup);
  std::printf("\n%s", tier_table.to_string().c_str());
  std::printf(
      "scalar-tier whole network (1 thread): %.1f img/s (vs %.1f img/s %s "
      "tier); logits bit-identical\n",
      scalar_img_s, plan_img_s, active_tier);

  // --- Result file --------------------------------------------------------
  bench::JsonObject out;
  out.add_string("bench", "shift_engine");
  out.add_string("git_sha", bench::git_sha());
  out.add_bool("smoke", smoke);
  out.add_int("batch", batch);
  out.add_int("repeats", repeats);
  out.add_number("width_scale", parser.get_double("--width-scale"));
  out.add("thread_sweep", bench::json_array(sweep_json));
  out.add_number("plan_img_per_s_1thread", plan_img_s);
  out.add_number("dense_layer_ms", dense_s * 1e3);
  out.add_number("pruned50_layer_ms", pruned_s * 1e3);
  out.add_number("pruned50_speedup_vs_dense", sparse_speedup);
  out.add_string("dispatch_tier", active_tier);
  out.add("tiers", bench::json_array(tier_json));
  out.add_number("scalar_img_per_s_1thread", scalar_img_s);
  out.add_bool("tiers_bit_identical", true);
  bench::add_host_info(out, active_tier);
  const std::string json_path = parser.get("--json");
  if (!bench::write_json_file(json_path, out)) {
    std::fprintf(stderr, "FATAL: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
