// Deployment scenario: take a trained FLightNN layer, decompose it into
// single-shift filters (Fig. 3) and run it on the integer shift-add engine
// -- the same datapath a LightNN-1 FPGA/ASIC design implements -- then
// verify the integer engine agrees with the float path, compile the whole
// trained network, and serve a burst of client-shaped requests through the
// serving::Server dynamic batcher, reporting the per-request queue/compute
// timing the unified InferenceResult carries.
//
//   $ ./examples/deploy_shift_inference [--threads N] [--max-batch B]
//                                       [--queue-delay-ms D] [--profile]
//                                       [--mem-budget MIB]
//                                       [--save-artifact PATH]
//                                       [--load-artifact PATH]
//
// --save-artifact writes the compiled network as a flat deployment artifact
// (serialize/artifact.hpp) after training. --load-artifact skips training
// entirely: the artifact is mmap-ed, its int8 packs adopted in one pass
// each, and served directly -- the production cold-start path.
//
// --threads sets the runtime pool size for both training and the shift
// engine (0 = FLIGHTNN_NUM_THREADS / hardware default). Outputs are
// bit-identical at every thread count. --max-batch / --queue-delay-ms are
// the dynamic batcher's flush knobs (DESIGN.md §11). --profile additionally
// prints per-layer wall time, shift-term counts, the dense kernel tier each
// shift layer ran on (scalar, avx2 or vnni), and the arena scratch each
// layer fetches (QuantizedNetwork::profile) -- the
// deployment check that a host is actually on the vector fast path.
//
// --mem-budget caps the deployment's inference memory (MiB, 0 = unlimited):
// the memory plan's per-thread peak (arena scratch + quantization scratch +
// activation working set) is reported against the budget, and when the
// requested batch would overshoot, the dynamic batcher's flush size is
// capped so the in-flight input set fits (DESIGN.md §15). The plan itself
// never changes -- the knob trades throughput for footprint, not accuracy.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/decompose.hpp"
#include "core/quantize_model.hpp"
#include "core/trainer.hpp"
#include "inference/memory_plan.hpp"
#include "data/dataset.hpp"
#include "inference/quantized_network.hpp"
#include "inference/shift_engine.hpp"
#include "models/networks.hpp"
#include "nn/conv2d.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "runtime/thread_pool.hpp"
#include "serialize/artifact.hpp"
#include "serving/server.hpp"
#include "support/argparse.hpp"
#include "support/table.hpp"

namespace {

// Report the memory plan's footprint against --mem-budget and, when the
// requested flush size would overshoot, cap it so the in-flight input set
// fits. Returns the (possibly reduced) max_batch. budget_mib == 0 means
// unlimited (report only).
int apply_mem_budget(const flightnn::inference::QuantizedNetwork& network,
                     std::int64_t channels, std::int64_t height,
                     std::int64_t width, int budget_mib, int max_batch) {
  using namespace flightnn;
  const inference::MemoryPlan* plan = network.memory_plan();
  const auto threads = static_cast<std::size_t>(runtime::num_threads());
  const std::size_t per_thread = plan->planned_per_thread_bytes();
  const std::size_t fixed = threads * per_thread;
  const std::size_t per_image =
      static_cast<std::size_t>(channels * height * width) * sizeof(float);
  const double mib = 1024.0 * 1024.0;
  std::printf(
      "\nmemory plan: arena %.1f KiB + quant %.1f KiB + activation pool %.1f "
      "KiB = %.2f MiB/thread x %zu threads = %.2f MiB planned peak\n",
      static_cast<double>(plan->arena_capacity_bytes()) / 1024.0,
      static_cast<double>(plan->quant_peak_bytes()) / 1024.0,
      static_cast<double>(plan->activation_pool_bytes()) / 1024.0,
      static_cast<double>(per_thread) / mib, threads,
      static_cast<double>(fixed) / mib);
  if (budget_mib <= 0) return max_batch;

  const std::size_t budget =
      static_cast<std::size_t>(budget_mib) * (std::size_t{1} << 20);
  const std::size_t batch_bytes =
      static_cast<std::size_t>(max_batch) * per_image;
  if (fixed + batch_bytes <= budget) {
    std::printf("mem budget: %d MiB >= %.2f MiB planned peak + %.2f MiB "
                "batch inputs -- within budget, batch stays %d\n",
                budget_mib, static_cast<double>(fixed) / mib,
                static_cast<double>(batch_bytes) / mib, max_batch);
    return max_batch;
  }
  if (fixed + per_image > budget) {
    std::printf("mem budget: %d MiB is below the planned per-thread peak "
                "(%.2f MiB) -- degrading to batch 1; expect the budget to "
                "be exceeded by the fixed working set\n",
                budget_mib, static_cast<double>(fixed) / mib);
    return 1;
  }
  const int capped = std::max(
      1, static_cast<int>((budget - fixed) / per_image));
  std::printf("mem budget: %d MiB < planned peak + %d-image inputs -- "
              "capping dynamic batch %d -> %d\n",
              budget_mib, max_batch, max_batch, std::min(capped, max_batch));
  return std::min(capped, max_batch);
}

// Push a burst of client-shaped requests (1-4 images each) through the
// dynamic batcher and print the per-request timing table. Shared between
// the freshly-trained path and the artifact cold-start path -- the network
// serves identically regardless of where its plans live.
int serve_burst(const flightnn::inference::QuantizedNetwork& network,
                std::int64_t channels, std::int64_t height, std::int64_t width,
                int max_batch, double queue_delay_ms) {
  using namespace flightnn;
  const runtime::BatchRunner runner(network);
  serving::ServerConfig serve;
  serve.max_batch = max_batch;
  serve.max_queue_delay_s = queue_delay_ms * 1e-3;
  serving::Server server(runner, serve);
  std::printf(
      "\nserving config: threads=%d max_batch=%d max_queue_delay=%.1fms "
      "queue_bound=%zu images, mode=%s\n",
      runtime::num_threads(), server.config().max_batch,
      server.config().max_queue_delay_s * 1e3,
      server.config().max_queue_images,
      server.config().block_on_full ? "block-on-full" : "reject-on-overload");

  support::Rng rng(1234);
  constexpr int kRequests = 6;
  std::vector<std::future<runtime::InferenceResult>> futures;
  std::vector<std::int64_t> sizes;
  for (int r = 0; r < kRequests; ++r) {
    runtime::InferenceRequest inference_request;
    inference_request.id = static_cast<std::uint64_t>(r + 1);
    const int images_in_request = r % 4 + 1;
    for (int i = 0; i < images_in_request; ++i) {
      inference_request.images.push_back(tensor::Tensor::randn(
          tensor::Shape{channels, height, width}, rng));
    }
    sizes.push_back(images_in_request);
    auto submission = server.submit(std::move(inference_request));
    if (submission.status != serving::SubmitStatus::Ok) {
      std::fprintf(stderr, "request %d not admitted: %s\n", r + 1,
                   serving::to_string(submission.status));
      return 1;
    }
    futures.push_back(std::move(submission.result));
  }

  support::Table serve_table({"request", "images", "queue (ms)",
                              "compute (ms)", "rode batch", "top-1",
                              "shifts", "adds"});
  for (std::size_t r = 0; r < futures.size(); ++r) {
    const runtime::InferenceResult result = futures[r].get();
    serve_table.add_row(
        {std::to_string(result.id), std::to_string(sizes[r]),
         support::format_fixed(result.timing.queue_seconds * 1e3, 2),
         support::format_fixed(result.timing.compute_seconds * 1e3, 2),
         std::to_string(result.timing.batch_size),
         std::to_string(result.argmax.empty() ? -1 : result.argmax[0]),
         std::to_string(result.counts.shifts),
         std::to_string(result.counts.adds)});
  }
  server.shutdown();
  const auto stats = server.stats();
  std::printf("per-request timing (%lld dynamic batches executed):\n%s",
              static_cast<long long>(stats.batches),
              serve_table.to_string().c_str());
  return 0;
}

// Break one image's inference cost down per step: where the wall time goes,
// how many single-shift terms each shift layer executes, and which dense
// tier (scalar / avx2 / vnni) each shift layer ran on.
// Shared between the
// freshly-trained path and the artifact cold-start path, so a deployment
// can confirm its mmap-loaded plans landed on the vector fast path.
void print_profile(const flightnn::inference::QuantizedNetwork& network,
                   std::int64_t channels, std::int64_t height,
                   std::int64_t width) {
  using namespace flightnn;
  support::Rng rng(99);
  tensor::Tensor image =
      tensor::Tensor::randn(tensor::Shape{channels, height, width}, rng);
  const auto steps = network.profile(image, /*repeats=*/20);
  double total_us = 0.0;
  for (const auto& step : steps) total_us += step.seconds * 1e6;
  support::Table table({"step", "kernel", "scratch", "time (us)",
                        "% of total", "terms", "shifts", "adds",
                        "float MACs"});
  for (const auto& step : steps) {
    const double us = step.seconds * 1e6;
    table.add_row({step.name, step.kernel_tier,
                   step.planned_scratch_bytes > 0
                       ? std::to_string(step.planned_scratch_bytes) + "B"
                       : "-",
                   support::format_fixed(us, 1),
                   support::format_fixed(100.0 * us / total_us, 1),
                   std::to_string(step.terms), std::to_string(step.shifts),
                   std::to_string(step.adds),
                   std::to_string(step.float_macs)});
  }
  std::printf("\nper-layer profile (%zu steps, %.1f us/image total):\n%s",
              steps.size(), total_us, table.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flightnn;

  support::ArgParser parser("deploy_shift_inference",
                            "decompose a trained layer onto the shift engine");
  parser.add_flag("--threads", "runtime pool size (0 = env/hardware default)",
                  "0");
  parser.add_flag("--max-batch", "dynamic batcher flush size (images)", "8");
  parser.add_flag("--queue-delay-ms", "dynamic batcher flush deadline", "2");
  parser.add_flag("--mem-budget",
                  "inference memory budget in MiB (0 = unlimited)", "0");
  parser.add_flag("--save-artifact",
                  "write the compiled network as a deployment artifact", "");
  parser.add_flag("--load-artifact",
                  "serve an existing artifact (skips training)", "");
  std::vector<std::string> args(argv + 1, argv + argc);
  // --profile is a bare switch (no value).
  const auto profile_it = std::find(args.begin(), args.end(),
                                    std::string("--profile"));
  const bool profile = profile_it != args.end();
  if (profile) args.erase(profile_it);
  if (!parser.parse(args)) {
    std::fprintf(stderr,
                 "%s\n%s  --profile: per-layer wall time / term counts\n",
                 parser.error().c_str(), parser.usage().c_str());
    return 1;
  }
  runtime::set_num_threads(parser.get_int("--threads"));
  std::printf("runtime threads: %d\n", runtime::num_threads());

  // --- Artifact cold-start path: mmap, fix up, serve. No training. --------
  if (const std::string load_path = parser.get("--load-artifact");
      !load_path.empty()) {
    try {
      const auto t0 = std::chrono::steady_clock::now();
      const serialize::ArtifactModel artifact =
          serialize::ArtifactModel::load(load_path);
      const double load_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0).count();
      std::printf(
          "loaded artifact %s: %zu bytes, input [%lld, %lld, %lld], "
          "%zu steps, cold start %.2f ms\n",
          load_path.c_str(), artifact.size(),
          static_cast<long long>(artifact.input_c()),
          static_cast<long long>(artifact.input_h()),
          static_cast<long long>(artifact.input_w()),
          artifact.network().step_count(), load_ms);
      const int batch = apply_mem_budget(
          artifact.network(), artifact.input_c(), artifact.input_h(),
          artifact.input_w(), parser.get_int("--mem-budget"),
          parser.get_int("--max-batch"));
      const int status = serve_burst(artifact.network(), artifact.input_c(),
                                     artifact.input_h(), artifact.input_w(),
                                     batch,
                                     parser.get_double("--queue-delay-ms"));
      if (status == 0 && profile) {
        print_profile(artifact.network(), artifact.input_c(),
                      artifact.input_h(), artifact.input_w());
      }
      return status;
    } catch (const serialize::ArtifactError& error) {
      std::fprintf(stderr, "cannot serve %s: %s\n", load_path.c_str(),
                   error.what());
      return 1;
    }
  }

  // Train a small FLightNN (as in quickstart, fewer epochs).
  auto spec = data::cifar10_like(0.25F);
  spec.noise = 2.0F;  // demo-friendly difficulty at this tiny training budget
  const auto split = data::make_synthetic(spec);
  models::BuildOptions build;
  build.classes = spec.classes;
  build.width_scale = 0.25F;
  auto model = models::build_network(models::table1_network(1), build);
  core::FLightNNConfig fl;
  fl.lambdas = {2e-5F, 6e-5F};
  core::install_flightnn(*model, fl);
  core::TrainConfig train;
  train.epochs = 2;
  core::Trainer trainer(*model, train);
  (void)trainer.fit(split.train, split.test);

  // Pick the deepest conv layer and compile it for the shift engine.
  nn::Conv2d* target = nullptr;
  model->visit([&](nn::Layer& layer) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) target = conv;
  });
  if (target == nullptr) {
    std::fprintf(stderr, "no conv layer found\n");
    return 1;
  }

  const quant::Pow2Config pow2;
  tensor::Tensor wq = target->quantized_weight();
  inference::ShiftConv2d engine(wq, /*k_max=*/2, pow2, target->stride(),
                                target->padding());

  std::printf("compiled conv layer: %lld filters -> %lld single-shift terms\n",
              static_cast<long long>(target->out_channels()),
              static_cast<long long>(engine.term_count()));
  // The engine keeps only its int8 pack; the per-filter k histogram comes
  // from the Fig. 3 decomposition of the same weights, whose term count the
  // engine's equals.
  int histogram[3] = {0, 0, 0};
  for (int k : core::decompose_to_lightnn1(wq, 2, pow2).filter_k) {
    ++histogram[k];
  }
  std::printf("filter k histogram: k=0: %d, k=1: %d, k=2: %d\n", histogram[0],
              histogram[1], histogram[2]);

  // Feed it activation-shaped random data and compare against the float
  // reference convolution on the same quantized operands.
  support::Rng rng(42);
  const std::int64_t side = 8;
  tensor::Tensor act = tensor::Tensor::randn(
      tensor::Shape{target->in_channels(), side, side}, rng);
  const auto qact = inference::quantize_image(act, 8);

  const inference::OpCounts counts = engine.census(side, side);
  tensor::Tensor engine_out = engine.run(qact);
  tensor::Tensor reference = inference::reference_conv(
      wq, inference::dequantize(qact), target->stride(), target->padding());

  const float diff = tensor::max_abs_diff(engine_out, reference);
  std::printf("\ninteger engine vs float reference: max |diff| = %.2e %s\n",
              diff, diff < 1e-4F ? "(bit-exact modulo fp32 storage)" : "(MISMATCH!)");
  std::printf("op census for one %lldx%lld input: %lld shifts, %lld adds\n",
              static_cast<long long>(side), static_cast<long long>(side),
              static_cast<long long>(counts.shifts),
              static_cast<long long>(counts.adds));
  const double macs = static_cast<double>(
      target->out_channels() * target->in_channels() * 9 * side * side);
  std::printf("shifts per multiply-equivalent: %.2f (k=2 everywhere would be 2.0)\n",
              static_cast<double>(counts.shifts) / macs);
  if (diff >= 1e-4F) return 1;

  // --- Serve the whole trained network through the dynamic batcher --------
  // Compile the model to the integer plan and push a burst of
  // production-shaped requests (1-4 images each) through serving::Server.
  // Each InferenceResult reports how long the request queued, how long its
  // fused batch computed, and which dynamic batch size it rode in -- the
  // per-request observability the serving API carries natively.
  inference::NetworkProgram program = inference::compile_program(
      *model, tensor::Shape{1, spec.channels, spec.height, spec.width});
  // --save-artifact: freeze the compiled network into the flat deployment
  // blob a later --load-artifact run (or any serving replica) can mmap. The
  // blob is laid out before the program is adopted and written after, so a
  // program that cannot load is never written.
  const std::string save_path = parser.get("--save-artifact");
  const std::size_t program_ops = program.ops.size();
  const std::vector<std::uint8_t> blob =
      save_path.empty() ? std::vector<std::uint8_t>()
                        : serialize::build_artifact(program);
  const auto network =
      inference::QuantizedNetwork::from_program(std::move(program));
  if (!save_path.empty()) {
    serialize::write_artifact(blob, save_path);
    std::printf("\nsaved deployment artifact: %s (%zu bytes, %zu ops)\n",
                save_path.c_str(), blob.size(), program_ops);
  }

  const int batch = apply_mem_budget(network, spec.channels, spec.height,
                                     spec.width, parser.get_int("--mem-budget"),
                                     parser.get_int("--max-batch"));
  const int serve_status =
      serve_burst(network, spec.channels, spec.height, spec.width, batch,
                  parser.get_double("--queue-delay-ms"));
  if (serve_status != 0) return serve_status;

  if (profile) {
    print_profile(network, spec.channels, spec.height, spec.width);
  }
  return 0;
}
