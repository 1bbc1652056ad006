// Cold-start microbench for the deployment artifact (serialize/artifact).
//
// Measures the wall-clock cost of bringing a servable network up from disk
// along the two supported paths:
//
//   checkpoint: build_network + install_lightnn + load_state (stream-parse
//               of every tensor) + QuantizedNetwork::compile (requantize +
//               shift-plan compilation from scratch)
//   artifact:   ArtifactModel::load (mmap, the checksum, the section
//               table, one copy of each int8 pack and one adoption pass
//               over its words)
//
// Both paths must produce byte-identical logits -- the bench memcmp-checks
// them on a handful of images and exits nonzero on any mismatch, so a wrong
// artifact can never post a good number. Results go to BENCH_artifact.json.
//
// Usage: artifact_cold_start [--width-scale W] [--repeats N]
//                            [--json PATH] [--smoke]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/quantize_model.hpp"
#include "inference/network_program.hpp"
#include "inference/quantized_network.hpp"
#include "inference/shift_kernels.hpp"
#include "models/networks.hpp"
#include "runtime/thread_pool.hpp"
#include "serialize/artifact.hpp"
#include "serialize/model_io.hpp"
#include "support/argparse.hpp"
#include "support/rng.hpp"
#include "tensor/tensor.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define FLIGHTNN_BENCH_HAS_PID 1
#endif

namespace flightnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::int64_t kChannels = 3;
constexpr std::int64_t kHeight = 32;
constexpr std::int64_t kWidth = 32;

std::unique_ptr<nn::Sequential> fresh_model(float width_scale) {
  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = width_scale;
  build.seed = 1;
  auto model = models::build_network(models::table1_network(1), build);
  core::install_lightnn(*model, 2);
  return model;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One full checkpoint cold start: stream-parse the state file into a fresh
// model, then requantize and compile the shift plans. Returns the network so
// the caller can check logits; *elapsed_ms receives the timing.
inference::QuantizedNetwork checkpoint_cold_start(const std::string& path,
                                                  float width_scale,
                                                  double* elapsed_ms) {
  const auto start = std::chrono::steady_clock::now();
  auto model = fresh_model(width_scale);
  serialize::load_state(*model, path);
  auto network =
      inference::QuantizedNetwork::compile(*model,
                                           Shape{1, kChannels, kHeight, kWidth});
  *elapsed_ms = ms_since(start);
  return network;
}

std::vector<std::uint8_t> logits_bytes(const inference::QuantizedNetwork& net,
                                       const std::vector<Tensor>& images) {
  std::vector<std::uint8_t> bytes;
  for (const Tensor& image : images) {
    const Tensor logits = net.run(image);
    const auto* raw = reinterpret_cast<const std::uint8_t*>(logits.data());
    bytes.insert(bytes.end(), raw,
                 raw + static_cast<std::size_t>(logits.numel()) *
                           sizeof(float));
  }
  return bytes;
}

}  // namespace
}  // namespace flightnn

int main(int argc, char** argv) {
  using namespace flightnn;

  support::ArgParser parser("artifact_cold_start",
                            "checkpoint vs mmap-artifact cold-start latency");
  parser.add_flag("--width-scale", "channel-width multiplier of network 1",
                  "0.5");
  parser.add_flag("--repeats", "timed repetitions per path (best-of)", "15");
  parser.add_flag("--json", "result file path", "BENCH_artifact.json");
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto smoke_it = std::find(args.begin(), args.end(), "--smoke");
  const bool smoke = smoke_it != args.end();
  if (smoke) args.erase(smoke_it);
  if (!parser.parse(args)) {
    std::fprintf(stderr, "%s\n%s  --smoke: CI-sized run (3 repeats)\n",
                 parser.error().c_str(), parser.usage().c_str());
    return 1;
  }
  runtime::set_num_threads(1);
  const auto width_scale =
      static_cast<float>(parser.get_double("--width-scale"));
  const int repeats = smoke ? 3 : std::max(1, parser.get_int("--repeats"));

#ifdef FLIGHTNN_BENCH_HAS_PID
  const std::string tag = std::to_string(static_cast<long>(::getpid()));
#else
  const std::string tag = "0";
#endif
  const std::string ckpt_path = "/tmp/flightnn_bench_" + tag + ".ckpt";
  const std::string artifact_path = "/tmp/flightnn_bench_" + tag + ".flnart";

  // Stage both files once. The artifact is compiled from the *same* model
  // instance the checkpoint captures, so the two cold-start paths race to
  // reconstruct the identical network.
  auto model = fresh_model(width_scale);
  serialize::save_state(*model, ckpt_path);
  const inference::NetworkProgram program = inference::compile_program(
      *model, Shape{1, kChannels, kHeight, kWidth});
  serialize::save_artifact(program, artifact_path);
  const std::vector<std::uint8_t> artifact_blob =
      serialize::build_artifact(program);
  const std::vector<std::uint8_t> ckpt_blob = serialize::save_state(*model);
  model.reset();

  std::printf("== FLightNN artifact cold start ==\n");
  std::printf("network 1 (VGG-7 proxy) width %.3f, input %lldx%lldx%lld\n",
              static_cast<double>(width_scale),
              static_cast<long long>(kChannels),
              static_cast<long long>(kHeight),
              static_cast<long long>(kWidth));
  std::printf("checkpoint %zu bytes, artifact %zu bytes, repeats %d%s\n\n",
              ckpt_blob.size(), artifact_blob.size(), repeats,
              smoke ? " (smoke)" : "");

  // Correctness gate before any timing: both paths must agree bit-for-bit.
  support::Rng rng(4242);
  std::vector<Tensor> images;
  for (int i = 0; i < 4; ++i) {
    images.push_back(Tensor::randn(Shape{kChannels, kHeight, kWidth}, rng));
  }
  double first_ckpt_ms = 0.0;
  const auto reference =
      checkpoint_cold_start(ckpt_path, width_scale, &first_ckpt_ms);
  const auto reference_logits = logits_bytes(reference, images);
  {
    const serialize::ArtifactModel artifact =
        serialize::ArtifactModel::load(artifact_path);
    const auto artifact_logits = logits_bytes(artifact.network(), images);
    if (artifact_logits.size() != reference_logits.size() ||
        std::memcmp(artifact_logits.data(), reference_logits.data(),
                    reference_logits.size()) != 0) {
      std::fprintf(stderr,
                   "FATAL: artifact logits differ from checkpoint logits\n");
      std::remove(ckpt_path.c_str());
      std::remove(artifact_path.c_str());
      return 1;
    }
  }

  // Timed runs. Best-of reporting: cold start is a latency number and the
  // interesting figure is the cost of the work itself, not scheduler noise;
  // the file cache is warm for both paths after the staging writes above.
  double best_ckpt_ms = first_ckpt_ms;
  double best_artifact_ms = 1e300;
  for (int i = 0; i < repeats; ++i) {
    double elapsed = 0.0;
    const auto net = checkpoint_cold_start(ckpt_path, width_scale, &elapsed);
    (void)net;
    best_ckpt_ms = std::min(best_ckpt_ms, elapsed);
  }
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const serialize::ArtifactModel artifact =
        serialize::ArtifactModel::load(artifact_path);
    best_artifact_ms = std::min(best_artifact_ms, ms_since(start));
  }
  std::remove(ckpt_path.c_str());
  std::remove(artifact_path.c_str());

  const double speedup = best_ckpt_ms / best_artifact_ms;
  std::printf("checkpoint cold start: %9.3f ms (best of %d)\n", best_ckpt_ms,
              repeats);
  std::printf("artifact   cold start: %9.3f ms (best of %d)\n",
              best_artifact_ms, repeats);
  std::printf("speedup: %.1fx, logits memcmp-identical on %zu images\n",
              speedup, images.size());

  bench::JsonObject out;
  out.add_string("bench", "artifact_cold_start");
  out.add_string("git", bench::git_sha());
  out.add_bool("smoke", smoke);
  out.add_int("repeats", repeats);
  out.add_number("width_scale", width_scale);
  out.add_int("checkpoint_bytes", static_cast<long long>(ckpt_blob.size()));
  out.add_int("artifact_bytes", static_cast<long long>(artifact_blob.size()));
  out.add_number("checkpoint_cold_start_ms", best_ckpt_ms);
  out.add_number("artifact_cold_start_ms", best_artifact_ms);
  out.add_number("speedup", speedup);
  out.add_bool("logits_identical", true);
  bench::add_host_info(
      out, inference::kernel_tier_name(inference::active_shift_kernels().tier));
  const std::string json_path = parser.get("--json");
  if (!bench::write_json_file(json_path, out)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
