// Tests for checkpoints: state round-trip through memory and disk, and
// rejection of structurally mismatched or truncated buffers. (The
// deployment artifact has its own battery, artifact_test; eval_test covers
// the paper's storage accounting.)

#include "serialize/model_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define FLIGHTNN_SERIALIZE_TEST_HAS_PID 1
#endif

#include "core/quantize_model.hpp"
#include "core/trainer.hpp"
#include "models/networks.hpp"

namespace flightnn::serialize {
namespace {

using tensor::Shape;
using tensor::Tensor;

data::TrainTest tiny_task() {
  data::DatasetSpec spec;
  spec.classes = 3;
  spec.channels = 2;
  spec.height = 8;
  spec.width = 8;
  spec.train_size = 96;
  spec.test_size = 32;
  spec.noise = 0.8F;
  spec.seed = 11;
  return data::make_synthetic(spec);
}

std::unique_ptr<nn::Sequential> make_model(std::uint64_t seed = 3) {
  models::BuildOptions build;
  build.classes = 3;
  build.in_channels = 2;
  build.width_scale = 0.25F;
  build.seed = seed;
  return models::build_network(models::table1_network(4), build);
}

// Collision-free scratch file inside the gtest-managed temp dir: a fixed
// name races when several test binaries (or ctest shards) run concurrently.
std::string unique_temp_path(const char* stem) {
#ifdef FLIGHTNN_SERIALIZE_TEST_HAS_PID
  const std::string pid = std::to_string(static_cast<long>(::getpid()));
#else
  const std::string pid = "0";
#endif
  static int counter = 0;
  return ::testing::TempDir() + "/" + stem + "_" + pid + "_" +
         std::to_string(counter++) + ".bin";
}

// Train briefly so batch-norm running stats and thresholds are non-trivial.
void train_briefly(nn::Sequential& model, const data::TrainTest& split) {
  core::TrainConfig config;
  config.epochs = 1;
  config.threshold_learning_rate = 0.05F;
  core::Trainer trainer(model, config);
  (void)trainer.train_epoch(split.train);
}

TEST(CheckpointTest, RoundTripRestoresForwardExactly) {
  const auto split = tiny_task();
  auto original = make_model();
  core::install_flightnn(*original, core::FLightNNConfig{});
  train_briefly(*original, split);

  const auto buffer = save_state(*original);
  EXPECT_GT(buffer.size(), 100u);

  auto restored = make_model(99);  // different init
  core::install_flightnn(*restored, core::FLightNNConfig{});
  load_state(*restored, buffer);

  const Tensor image = split.test.image(0);
  const Tensor a = original->forward(image, false);
  const Tensor b = restored->forward(image, false);
  EXPECT_LT(tensor::max_abs_diff(a, b), 1e-7F);
}

TEST(CheckpointTest, RestoresThresholds) {
  const auto split = tiny_task();
  auto original = make_model();
  const auto transforms = core::install_flightnn(*original, core::FLightNNConfig{});
  train_briefly(*original, split);
  const auto trained_thresholds = transforms.front()->thresholds();

  auto restored = make_model(50);
  const auto new_transforms =
      core::install_flightnn(*restored, core::FLightNNConfig{});
  load_state(*restored, save_state(*original));
  EXPECT_EQ(new_transforms.front()->thresholds(), trained_thresholds);
}

TEST(CheckpointTest, DiskRoundTrip) {
  const auto split = tiny_task();
  auto model = make_model();
  train_briefly(*model, split);
  const std::string path = unique_temp_path("flightnn_ckpt");
  save_state(*model, path);

  auto restored = make_model(51);
  load_state(*restored, path);
  const Tensor image = split.test.image(1);
  EXPECT_LT(tensor::max_abs_diff(model->forward(image, false),
                                 restored->forward(image, false)),
            1e-7F);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsStructuralMismatch) {
  auto model = make_model();
  const auto buffer = save_state(*model);

  // Different width => shape mismatch.
  models::BuildOptions build;
  build.classes = 3;
  build.in_channels = 2;
  build.width_scale = 0.5F;
  auto wider = models::build_network(models::table1_network(4), build);
  EXPECT_THROW(load_state(*wider, buffer), std::runtime_error);

  // Corrupted magic.
  auto corrupted = buffer;
  corrupted[0] ^= 0xFF;
  EXPECT_THROW(load_state(*model, corrupted), std::runtime_error);

  // Truncation.
  auto truncated = buffer;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(load_state(*model, truncated), std::runtime_error);
}

}  // namespace
}  // namespace flightnn::serialize
