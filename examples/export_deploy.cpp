// Train -> checkpoint -> artifact -> verify: the full deployment round trip.
// Saves a training checkpoint, restores it, compiles the restored model into
// the deployment artifact, loads that back, and verifies the loaded network
// produces the compiled network's logits byte for byte.
//
//   $ ./examples/export_deploy

#include <cstdio>
#include <cstring>

#include "core/quantize_model.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "eval/storage.hpp"
#include "inference/quantized_network.hpp"
#include "models/networks.hpp"
#include "serialize/artifact.hpp"
#include "serialize/model_io.hpp"

int main() {
  using namespace flightnn;

  // Train a small FLightNN.
  auto spec = data::cifar10_like(0.25F);
  spec.noise = 2.0F;  // demo-friendly difficulty at this tiny training budget
  const auto split = data::make_synthetic(spec);
  models::BuildOptions build;
  build.classes = spec.classes;
  build.width_scale = 0.25F;
  auto model = models::build_network(models::table1_network(4), build);
  core::FLightNNConfig fl;
  fl.lambdas = {8e-5F, 2.4e-4F};
  core::install_flightnn(*model, fl);
  core::TrainConfig train;
  train.epochs = 3;
  train.threshold_learning_rate = 0.05F;
  core::Trainer trainer(*model, train);
  const auto fit = trainer.fit(split.train, split.test);
  std::printf("trained: %.2f%% test accuracy, mean k %.2f\n",
              fit.test_accuracy * 100.0, eval::model_mean_k(*model));

  // 1. Checkpoint round trip.
  const auto checkpoint = serialize::save_state(*model);
  auto restored = models::build_network(models::table1_network(4), build);
  core::install_flightnn(*restored, fl);
  serialize::load_state(*restored, checkpoint);
  std::printf("checkpoint: %zu bytes, restored model matches: %s\n",
              checkpoint.size(),
              tensor::max_abs_diff(model->forward(split.test.image(0), false),
                                   restored->forward(split.test.image(0), false)) <
                      1e-6F
                  ? "yes"
                  : "NO");

  // 2. Deployment artifact: the compiled shift plans, laid out for mmap.
  const tensor::Shape input{1, spec.channels, spec.height, spec.width};
  inference::NetworkProgram program =
      inference::compile_program(*restored, input);
  const std::vector<std::uint8_t> blob = serialize::build_artifact(program);
  std::printf("artifact: %zu bytes; paper storage (4 bits per shift term, "
              "2-bit filter k tags): %.0f bytes\n",
              blob.size(), eval::model_storage_bytes(*model));
  std::printf("  float32 weights would be: %.0f bytes\n",
              static_cast<double>(models::parameter_count(*model)) * 4);

  // 3. Verify the artifact: the loaded network's logits must equal the
  //    compiled network's, byte for byte, on every test image.
  const auto loaded = serialize::ArtifactModel::load_buffer(blob.data(),
                                                            blob.size());
  const auto compiled =
      inference::QuantizedNetwork::from_program(std::move(program));
  std::int64_t mismatches = 0;
  for (std::int64_t n = 0; n < split.test.size(); ++n) {
    const tensor::Tensor a = compiled.run(split.test.image(n));
    const tensor::Tensor b = loaded.network().run(split.test.image(n));
    if (std::memcmp(a.data(), b.data(),
                    static_cast<std::size_t>(a.numel()) * sizeof(float)) != 0) {
      ++mismatches;
    }
  }
  std::printf("artifact round trip: %lld of %lld images differ %s\n",
              static_cast<long long>(mismatches),
              static_cast<long long>(split.test.size()),
              mismatches == 0 ? "(byte-identical logits)" : "");

  // 4. Accuracy of the deployed integer engine.
  inference::NetworkOpCounts counts{};
  const double engine_acc = loaded.network().evaluate(split.test, 1, &counts);
  std::printf("integer engine accuracy: %.2f%% (float path: %.2f%%)\n",
              engine_acc * 100.0, fit.test_accuracy * 100.0);
  std::printf("integer ops per image: %lld shifts, %lld adds\n",
              static_cast<long long>(counts.shifts / counts.images),
              static_cast<long long>(counts.adds / counts.images));
  return mismatches == 0 ? 0 : 1;
}
