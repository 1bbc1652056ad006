// Tests for the whole-network integer inference pipeline: the compiled plan
// must agree with the float eval-mode forward pass of the same trained
// model (same quantization points, same weights, folded batch norm), run
// its convolutions on the shift engine, and count operations consistently.

#include "inference/quantized_network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/quantize_model.hpp"
#include "core/trainer.hpp"
#include "hand_program.hpp"
#include "inference/shift_kernels.hpp"
#include "models/networks.hpp"
#include "nn/activations.hpp"
#include "quant/lightnn.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/buffer_pool.hpp"
#include "term_walk_oracle.hpp"

namespace flightnn::inference {
namespace {

using tensor::Shape;
using tensor::Tensor;

data::TrainTest small_task() {
  data::DatasetSpec spec;
  spec.classes = 4;
  spec.channels = 3;
  spec.height = 16;
  spec.width = 16;
  spec.train_size = 128;
  spec.test_size = 48;
  spec.noise = 1.0F;
  spec.seed = 77;
  return data::make_synthetic(spec);
}

// Table-1 network `network_id` at width 0.25 for 4 classes, shift-coded:
// LightNN-1 or -2 for `quantizer` 1 or 2, FLightNN for 3.
std::unique_ptr<nn::Sequential> untrained_model(int network_id,
                                                int quantizer) {
  models::BuildOptions build;
  build.classes = 4;
  build.width_scale = 0.25F;
  build.seed = 5;
  auto model = models::build_network(models::table1_network(network_id), build);
  if (quantizer == 3) {
    core::install_flightnn(*model, core::FLightNNConfig{});
  } else {
    core::install_lightnn(*model, quantizer);
  }
  return model;
}

std::unique_ptr<nn::Sequential> trained_model(int network_id, int quantizer,
                                              const data::TrainTest& split) {
  auto model = untrained_model(network_id, quantizer);
  core::TrainConfig train;
  train.epochs = 2;
  train.batch_size = 32;
  core::Trainer trainer(*model, train);
  (void)trainer.fit(split.train, split.test);
  return model;
}

// Float eval-mode logits for one image.
Tensor float_logits(nn::Sequential& model, const Tensor& image) {
  return model.forward(image, /*training=*/false);
}

class PipelineAgreement : public ::testing::TestWithParam<int> {};

TEST_P(PipelineAgreement, LogitsMatchFloatEvalPath) {
  const int quantizer = GetParam();
  const auto split = small_task();
  auto model = trained_model(4, quantizer, split);
  const Shape input_shape{1, 3, 16, 16};
  auto network = QuantizedNetwork::compile(*model, input_shape);

  // Shift-coded classifiers add one quantization point the float model does
  // not have (the global-average-pool output is re-quantized to 8 bits
  // before the integer linear engine, as hardware requires), so agreement
  // is to that quantization step's granularity, not bit-exact.
  const float tolerance = 6e-2F;
  for (std::int64_t n = 0; n < 8; ++n) {
    const Tensor image = split.test.image(n);
    const Tensor expected = float_logits(*model, image);
    const Tensor actual = network.run(image);
    ASSERT_EQ(actual.numel(), expected.numel());
    for (std::int64_t c = 0; c < actual.numel(); ++c) {
      EXPECT_NEAR(actual[c], expected[c * 1], tolerance)
          << "quantizer " << quantizer << " image " << n << " class " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Quantizers, PipelineAgreement,
                         ::testing::Values(1, 2, 3));

TEST(QuantizedNetworkTest, ResNetCompilesAndMatches) {
  const auto split = small_task();
  auto model = trained_model(8, 2, split);  // ResNet-10, LightNN-2
  auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  const Tensor image = split.test.image(0);
  const Tensor expected = float_logits(*model, image);
  const Tensor actual = network.run(image);
  for (std::int64_t c = 0; c < actual.numel(); ++c) {
    EXPECT_NEAR(actual[c], expected[c], 3e-2F);
  }
  // Plan contains a residual step.
  EXPECT_NE(network.describe().find("residual"), std::string::npos);
}

TEST(QuantizedNetworkTest, AccuracyMatchesTrainerEvaluate) {
  const auto split = small_task();
  auto model = trained_model(4, 3, split);  // FLightNN
  auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});

  core::TrainConfig config;
  core::Trainer trainer(*model, config);
  const double float_acc = trainer.evaluate(split.test, 1);
  const double integer_acc = network.evaluate(split.test, 1);
  EXPECT_NEAR(integer_acc, float_acc, 0.05);
}

TEST(QuantizedNetworkTest, ShiftModelsCountShiftsPerImage) {
  const auto split = small_task();
  auto model = trained_model(4, 1, split);  // LightNN-1: everything shifts
  auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  NetworkOpCounts counts{};
  (void)network.run(split.test.image(0), &counts);
  EXPECT_GT(counts.shifts, 0);
  EXPECT_EQ(counts.images, 1);
}

// A compiled network runs every conv and linear layer on the shift engine,
// so compile_program refuses a full-precision or fixed-point model at its
// first conv, naming the layer, its op index and the float path.
TEST(QuantizedNetworkTest, CompileRefusesLayersWithoutShiftCoding) {
  const Shape input{1, 3, 16, 16};
  for (const int network_id : {1, 2}) {  // VGG-7 and ResNet-18
    // The op index the first conv takes, from the model shift-coded.
    const NetworkProgram shifted =
        compile_program(*untrained_model(network_id, 2), input);
    std::size_t first_conv = 0;
    while (shifted.ops.at(first_conv).kind != ProgramOpKind::kShiftConv) {
      ++first_conv;
    }
    for (const bool fixed_point : {false, true}) {
      models::BuildOptions build;
      build.classes = 4;
      build.width_scale = 0.25F;
      auto model =
          models::build_network(models::table1_network(network_id), build);
      if (fixed_point) core::install_fixed_point(*model, 4);
      try {
        (void)compile_program(*model, input);
        ADD_FAILURE() << "network " << network_id << " compiled without "
                      << "shift coding";
      } catch (const support::CheckFailure& failure) {
        const std::string message = failure.what();
        EXPECT_NE(message.find("conv2d at op " + std::to_string(first_conv) +
                               " has no shift coding"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find(fixed_point ? "(weights: fixedpoint-4b)"
                                           : "(weights: full precision)"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("flightnn eval --engine float"),
                  std::string::npos)
            << message;
      }
      EXPECT_THROW((void)QuantizedNetwork::compile(*model, input),
                   support::CheckFailure);
    }
  }
}

TEST(QuantizedNetworkTest, OpCountsScaleWithK) {
  const auto split = small_task();
  auto model1 = trained_model(4, 1, split);
  auto model2 = trained_model(4, 2, split);
  auto net1 = QuantizedNetwork::compile(*model1, Shape{1, 3, 16, 16});
  auto net2 = QuantizedNetwork::compile(*model2, Shape{1, 3, 16, 16});
  NetworkOpCounts c1{}, c2{};
  (void)net1.run(split.test.image(0), &c1);
  (void)net2.run(split.test.image(0), &c2);
  EXPECT_GT(c2.shifts, c1.shifts);
  EXPECT_LE(c2.shifts, 2 * c1.shifts);
}

TEST(QuantizedNetworkTest, DescribeListsPlan) {
  const auto split = small_task();
  auto model = trained_model(4, 2, split);
  auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  const std::string plan = network.describe();
  EXPECT_NE(plan.find("quant(8b)"), std::string::npos);
  EXPECT_NE(plan.find("shift_conv"), std::string::npos);
  EXPECT_NE(plan.find("affine"), std::string::npos);
  EXPECT_NE(plan.find("shift_linear"), std::string::npos);
  EXPECT_GT(network.step_count(), 10u);
}

TEST(QuantizedNetworkTest, RejectsBadInputs) {
  const auto split = small_task();
  auto model = trained_model(4, 2, split);
  EXPECT_THROW(
      (void)QuantizedNetwork::compile(*model, Shape{3, 16, 16}),
      std::invalid_argument);
  auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  EXPECT_THROW((void)network.run(Tensor(Shape{2, 3, 16, 16})),
               std::invalid_argument);
}

// compile_program reads each layer's parameters and runs no forward pass,
// so all it leaves in the calling thread's pool are the quantized weights
// it asked each transform for: at most one buffer per weight size.
TEST(QuantizedNetworkTest, CompileProgramPoolsOnlyQuantizedWeights) {
  for (const int network_id : {1, 2}) {  // VGG-7 and ResNet-18
    for (const int quantizer : {2, 3}) {  // LightNN-2 and FLightNN
      auto model = untrained_model(network_id, quantizer);
      std::set<std::int64_t> weight_sizes;
      for (const core::QuantizableLayer& layer :
           core::quantizable_layers(*model)) {
        weight_sizes.insert(layer.weight->value.numel());
      }
      std::size_t weight_bytes = 0;
      for (const std::int64_t numel : weight_sizes) {
        weight_bytes += static_cast<std::size_t>(numel) * sizeof(float);
      }
      tensor::pool::trim();
      // Held while measured: destroying it would pool its biases.
      const NetworkProgram program =
          compile_program(*model, Shape{1, 3, 16, 16});
      EXPECT_LE(tensor::pool::stats().cached_bytes, weight_bytes)
          << "network " << network_id << ", quantizer " << quantizer;
    }
  }
  tensor::pool::trim();
}

// With no forward pass in compile, from_program's load walk is what
// refuses an input shape the layers cannot take.
TEST(QuantizedNetworkTest, CompileRefusesAnInputTheModelCannotTake) {
  auto model = untrained_model(1, 2);  // a 3-channel stem
  EXPECT_THROW((void)QuantizedNetwork::compile(*model, Shape{1, 4, 16, 16}),
               support::CheckFailure);
  EXPECT_NO_THROW((void)QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16}));
}

TEST(QuantizedNetworkTest, LinearAsOneByOneConvMatchesFloatLinear) {
  support::Rng rng(9);
  const quant::Pow2Config config;
  Tensor w = Tensor::randn(Shape{5, 12}, rng, 0.0F, 0.3F);
  Tensor wq = quant::quantize_lightnn(w, 2, config);
  Tensor bias = Tensor::randn(Shape{5}, rng);
  Tensor x = Tensor::randn(Shape{12}, rng);
  const auto qx = quantize_image(x.reshaped(Shape{12, 1, 1}), 8);

  // A linear layer runs as a 1x1 conv over the [12, 1, 1] plane.
  const ShiftConv2d engine = oracle::linear_engine(wq, 2, config, bias);
  Tensor out = oracle::run_linear(engine, qx);
  // Reference: float dot products on the dequantized operands.
  Tensor deq = dequantize(qx);
  for (std::int64_t o = 0; o < 5; ++o) {
    double acc = bias[o];
    for (std::int64_t e = 0; e < 12; ++e) acc += static_cast<double>(wq[o * 12 + e]) * deq[e];
    EXPECT_NEAR(out[o], static_cast<float>(acc), 1e-5F);
  }
}

// An untrained LightNN-2 model: compiling it is cheap and the contracts
// below do not depend on the weights.
std::unique_ptr<nn::Sequential> untrained_model(int network_id) {
  models::BuildOptions build;
  build.classes = 4;
  build.width_scale = 0.25F;
  build.seed = 11;
  auto model = models::build_network(models::table1_network(network_id), build);
  core::install_lightnn(*model, 2);
  return model;
}

// A non-finite pixel makes the activation quantizer's abs-max NaN or Inf,
// and casting ceil(log2(abs-max)) to int would be UB: the request must fail
// with a typed error instead.
TEST(QuantizedNetworkTest, NonFiniteImagesAreRejected) {
  auto model = untrained_model(4);
  const auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  const runtime::BatchRunner runner(network);
  support::Rng rng(21);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    Tensor image = Tensor::randn(Shape{3, 16, 16}, rng);
    image[37] = bad;
    EXPECT_THROW((void)network.run(image), std::invalid_argument) << bad;
    runtime::InferenceRequest request;
    request.images.push_back(image);
    runtime::InferenceResult result;
    EXPECT_THROW(runner.run(request, result), std::invalid_argument) << bad;
  }
}

// BatchRunner::run leaves the image check to QuantizedNetwork::run, once
// per image: a rank-2 image inside a batch that four threads split still
// fails the whole request with a typed error.
TEST(QuantizedNetworkTest, RunnerRejectsAMalformedImageInsideABatch) {
  auto model = untrained_model(4);
  const auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  const runtime::BatchRunner runner(network);
  support::Rng rng(23);
  runtime::InferenceRequest request;
  for (int i = 0; i < 6; ++i) {
    request.images.push_back(Tensor::randn(Shape{3, 16, 16}, rng));
  }
  request.images[3] = Tensor::randn(Shape{48, 16}, rng);
  runtime::set_num_threads(4);
  runtime::InferenceResult result;
  EXPECT_THROW(runner.run(request, result), std::invalid_argument);
  request.images[3] = Tensor::randn(Shape{3, 16, 16}, rng);
  EXPECT_NO_THROW(runner.run(request, result));
  EXPECT_EQ(result.logits.size(), 6U);
  runtime::set_num_threads(1);
}

// The network holds its program's input geometry and checks images against
// it at entry, so an image of another side never reaches the convolutions.
TEST(QuantizedNetworkTest, RejectsImagesOfAnotherGeometry) {
  auto model = untrained_model(4);
  const auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 32, 32});
  support::Rng rng(22);
  for (const std::int64_t side : {16, 48}) {
    const Tensor image = Tensor::randn(Shape{3, side, side}, rng);
    EXPECT_THROW((void)network.run(image), std::invalid_argument) << side;
    EXPECT_THROW((void)network.profile(image, 1), std::invalid_argument)
        << side;
  }
  const Tensor image = Tensor::randn(Shape{3, 32, 32}, rng);
  const Tensor batched = image.reshaped(Shape{1, 3, 32, 32});
  const Tensor logits = network.run(image);
  const Tensor batched_logits = network.run(batched);
  ASSERT_EQ(logits.shape(), batched_logits.shape());
  for (std::int64_t c = 0; c < logits.numel(); ++c) {
    EXPECT_EQ(logits[c], batched_logits[c]);
  }
}

// The op census is a constant of the compiled program: run() adds the same
// per-image counts whatever the pixels, in either accepted layout, and only
// once the forward pass has succeeded -- a rejected image leaves `counts`
// as it was.
TEST(QuantizedNetworkTest, CensusIsAConstantOfTheProgram) {
  auto model = untrained_model(4);
  const auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  const NetworkOpCounts& census = network.census();
  EXPECT_GT(census.shifts, 0);
  EXPECT_EQ(census.images, 1);

  support::Rng rng(24);
  NetworkOpCounts counts{};
  const Tensor noise = Tensor::randn(Shape{3, 16, 16}, rng);
  (void)network.run(noise, &counts);
  (void)network.run(Tensor(Shape{3, 16, 16}), &counts);  // all zeros
  (void)network.run(noise.reshaped(Shape{1, 3, 16, 16}), &counts);
  EXPECT_EQ(counts.shifts, 3 * census.shifts);
  EXPECT_EQ(counts.adds, 3 * census.adds);
  EXPECT_EQ(counts.images, 3);

  Tensor nan_image = noise;
  nan_image[5] = std::numeric_limits<float>::quiet_NaN();
  const NetworkOpCounts before = counts;
  for (const Tensor& bad : {nan_image, Tensor(Shape{3, 16, 8})}) {
    EXPECT_THROW((void)network.run(bad, &counts), std::invalid_argument);
    EXPECT_NE(network.image_defect(bad), nullptr);
  }
  EXPECT_EQ(counts.shifts, before.shifts);
  EXPECT_EQ(counts.adds, before.adds);
  EXPECT_EQ(counts.images, before.images);
  EXPECT_EQ(network.image_defect(noise), nullptr);
}

// --- from_program's checks -----------------------------------------------------
// Hand-built programs. from_program and the adopting engines are the one
// check of a program's contents whoever built it: the artifact loader hands
// them its programs unchecked past the container.

using hand::hand_program;
using hand::leaky_op;
using hand::residual_op;
using hand::shift_conv_op;

TEST(QuantizedNetworkTest, FromProgramRejectsMalformedPrograms) {
  // A well-formed block runs: leaky main, empty shortcut, leaky post.
  EXPECT_NO_THROW((void)QuantizedNetwork::from_program(
      hand_program({residual_op(1, 0, 1, false), leaky_op(), leaky_op()})));

  // Residual segment overrunning the op list.
  EXPECT_THROW((void)QuantizedNetwork::from_program(
                   hand_program({residual_op(3, 0, 0, false), leaky_op()})),
               std::invalid_argument);
  // Shortcut ops on a block without a shortcut.
  EXPECT_THROW(
      (void)QuantizedNetwork::from_program(hand_program(
          {residual_op(1, 1, 0, false), leaky_op(), leaky_op()})),
      std::invalid_argument);
  // Inner residual overrunning its outer main segment: the outer counts add
  // up at the top level, the inner block claims past [1, 3).
  EXPECT_THROW((void)QuantizedNetwork::from_program(hand_program(
                   {residual_op(2, 0, 1, false), residual_op(2, 0, 0, false),
                    leaky_op(), leaky_op()})),
               std::invalid_argument);
  // Quantizer width outside [2, 16].
  ProgramOp quant;
  quant.kind = ProgramOpKind::kQuantAct;
  quant.bits = 17;
  EXPECT_THROW((void)QuantizedNetwork::from_program(hand_program({quant})),
               std::invalid_argument);
  // Unknown op kind.
  ProgramOp unknown = leaky_op();
  unknown.kind = static_cast<ProgramOpKind>(99);
  EXPECT_THROW((void)QuantizedNetwork::from_program(hand_program({unknown})),
               std::invalid_argument);
}

// The load walk picks each shift op's tile from its output plane and live
// count (pick_conv_tile, on the tier active at load), records it in the
// op's row, and run() and profile() follow the row: on VNNI the 16x16 conv
// runs the column tile and the 8x8 and 4x4 convs the filter tile, and
// every tier and tile gives the scalar tier's logits.
TEST(QuantizedNetworkTest, EachShiftOpRecordsItsTile) {
  support::Rng rng(71);
  const auto conv = [&](std::int64_t in, std::int64_t out,
                        std::int64_t stride) {
    ProgramOp op;
    op.kind = ProgramOpKind::kShiftConv;
    op.out_channels = out;
    op.in_channels = in;
    op.kernel = 3;
    op.stride = stride;
    op.padding = 1;
    inference::CompiledPlan compiled = inference::ShiftPlan::compile_conv(
        quant::quantize_lightnn(
            Tensor::randn(Shape{out, in, 3, 3}, rng, 0.0F, 0.3F), 2, op.pow2),
        2, op.pow2);
    op.term_count = compiled.term_count;
    op.plan = std::move(compiled.plan);
    return op;
  };
  NetworkProgram program;
  program.ops = {conv(8, 32, 1), conv(32, 32, 2), conv(32, 32, 2)};
  program.input_c = 8;
  program.input_h = 16;
  program.input_w = 16;
  const Tensor image = Tensor::randn(Shape{8, 16, 16}, rng);
  const std::int64_t widths[] = {16, 8, 4};

  struct ClearTierOverride {
    ~ClearTierOverride() { inference::set_kernel_tier_override(-1); }
  } clear;
  inference::set_kernel_tier_override(0);
  const Tensor scalar_logits =
      QuantizedNetwork::from_program(program).run(image);
  for (const KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kVnni}) {
    if (inference::shift_kernels_for(tier).tier != tier) continue;
    inference::set_kernel_tier_override(static_cast<int>(tier));
    const auto network = QuantizedNetwork::from_program(program);
    const auto& rows = network.memory_plan()->per_op();
    const auto steps = network.profile(image, 1);
    ASSERT_EQ(steps.size(), 3U);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(rows[i].tile,
                inference::pick_conv_tile(tier, widths[i], widths[i], 32))
          << kernel_tier_name(tier) << " op " << i;
      EXPECT_EQ(steps[i].tile, inference::conv_tile_name(rows[i].tile))
          << kernel_tier_name(tier) << " op " << i;
    }
    if (tier == KernelTier::kVnni) {
      EXPECT_EQ(steps[0].tile, "column");
      EXPECT_EQ(steps[1].tile, "filter");
      EXPECT_EQ(steps[2].tile, "filter");
    }
    const Tensor logits = network.run(image);
    EXPECT_EQ(std::memcmp(logits.data(), scalar_logits.data(),
                          static_cast<std::size_t>(logits.numel()) *
                              sizeof(float)),
              0)
        << kernel_tier_name(tier);
  }
}

// Each program below is malformed in one field. from_program must throw
// CheckFailure for every one (the sanitizer legs run this case, so none may
// reach run()). Unchecked, run() would index past the output (a live
// filter at out_channels) or a heap buffer (a short words section, the
// bias), give -inf (e_min) or NaN (slope) logits, or report counts its
// words do not hold.
TEST(QuantizedNetworkTest, FromProgramChecksEveryField) {
  const Tensor image = Tensor::zeros(Shape{2, 4, 4});
  {
    const auto network =
        QuantizedNetwork::from_program(hand_program({shift_conv_op()}));
    EXPECT_EQ(network.profile(image, 1)[0].kernel_tier,
              kernel_tier_name(active_shift_kernels().tier))
        << "the valid program runs dense";
    EXPECT_EQ(network.run(image).numel(), 2 * 4 * 4);
  }
  const auto rejects = [](const char* what, NetworkProgram program) {
    EXPECT_THROW((void)QuantizedNetwork::from_program(std::move(program)),
                 support::CheckFailure)
        << what;
  };
  const auto with_conv = [](auto mutate) {
    ProgramOp op = shift_conv_op();
    mutate(op);
    return hand_program({op});
  };
  rejects("live filter = out_channels",
          with_conv([](ProgramOp& op) { op.plan.live[1] = 2; }));
  rejects("negated byte 100",
          with_conv([](ProgramOp& op) { op.plan.negated[1] = 100; }));
  rejects("a byte in channel 2's lane, past in_channels 2",
          with_conv([](ProgramOp& op) { op.plan.words[0] |= 0x10000; }));
  rejects("11 units, three terms at k_max 2", with_conv([](ProgramOp& op) {
            op.plan.words[1] |= 11;
            op.plan.entry_count += 3;
          }));
  rejects("an entry count one high",
          with_conv([](ProgramOp& op) { ++op.plan.entry_count; }));
  rejects("a term count one low",
          with_conv([](ProgramOp& op) { --op.term_count; }));
  rejects("a words section one word short",
          with_conv([](ProgramOp& op) { op.plan.words.pop_back(); }));
  rejects("a negated section one byte short",
          with_conv([](ProgramOp& op) { op.plan.negated.pop_back(); }));
  rejects("e_min = -2^31 + 2", with_conv([](ProgramOp& op) {
            op.pow2.e_min = std::numeric_limits<int>::min() + 2;
            op.pow2.e_max = op.pow2.e_min + 6;
          }));
  rejects("a bias shorter than the filters",
          with_conv([](ProgramOp& op) { op.bias = Tensor(Shape{1}); }));
  // Paddings within the caps that run() could not take: padded by 2^24 the
  // plane passes the int32 offsets the kernels index, which the census
  // checks before it tabulates anything; padded by 2^14 the plane fits, but
  // the [2, 2^15 + 2, 2^15 + 2] output is not an activation run() could
  // hold. Unchecked, either grows the memory plan past what a host holds,
  // and a chain of such convs the census past int64.
  const std::pair<std::int64_t, const char*> paddings[] = {
      {kMaxOpDim, "pads past the int32 offset range"},
      {std::int64_t{1} << 14, "past 2^31 - 1 elements"}};
  for (const auto& [padding, refusal] : paddings) {
    try {
      (void)QuantizedNetwork::from_program(
          with_conv([&](ProgramOp& op) { op.padding = padding; }));
      ADD_FAILURE() << "a padding of " << padding << " loaded";
    } catch (const support::CheckFailure& failure) {
      EXPECT_NE(std::string(failure.what()).find(refusal), std::string::npos)
          << failure.what();
    }
  }
  // The leaky op's branch-free kernel equals v > 0 ? v : slope * v only
  // for slopes in [0, 1), nn::LeakyReLU's contract.
  for (const float slope : {std::numeric_limits<float>::quiet_NaN(), -0.1F,
                            1.0F}) {
    ProgramOp leaky = leaky_op();
    leaky.slope = slope;
    rejects("a leaky slope outside [0, 1)", hand_program({leaky}));
  }
  // Residual blocks nested `depth` deep around one leaky op.
  const auto nested = [](std::int64_t depth) {
    std::vector<ProgramOp> ops;
    for (std::int64_t d = 0; d < depth; ++d) {
      ops.push_back(residual_op(depth - d, 0, 0, false));
    }
    ops.push_back(leaky_op());
    return hand_program(std::move(ops));
  };
  EXPECT_NO_THROW((void)QuantizedNetwork::from_program(nested(64)));
  rejects("residual nesting 65 deep", nested(65));
}

// At both ends of the slope contract the compiled leaky-ReLU op and
// nn::LeakyReLU's branch-free max(v, v * slope) kernel must both equal the
// ternary v > 0 ? v : slope * v byte for byte, on signed zeros and on
// denormal negatives whose product underflows to -0: either form may run
// the op.
TEST(QuantizedNetworkTest, LeakyReluOpMatchesTheTernaryBytewise) {
  const float denormal = std::numeric_limits<float>::denorm_min();
  const std::vector<float> values = {
      0.0F,      -0.0F,          denormal,        -denormal,
      -2 * denormal, -std::numeric_limits<float>::min() / 2, -1.5F, 1.5F,
      -std::numeric_limits<float>::min(), std::numeric_limits<float>::min(),
      -3.0e38F,  3.0e38F,        -1e-30F,         1e-30F,
      -7.25F,    0.5F};
  for (const float slope :
       {0.0F, std::nextafter(1.0F, 0.0F), 0.01F}) {
    ProgramOp leaky = leaky_op();
    leaky.slope = slope;
    const auto network = QuantizedNetwork::from_program(hand_program({leaky}));
    Tensor image(Shape{2, 4, 4});
    for (std::int64_t i = 0; i < image.numel(); ++i) {
      image[i] = values[static_cast<std::size_t>(i) % values.size()];
    }
    const Tensor out = network.run(image);
    const Tensor trained = nn::LeakyReLU(slope).forward(image, false);
    ASSERT_EQ(out.numel(), image.numel());
    ASSERT_EQ(trained.numel(), image.numel());
    for (std::int64_t i = 0; i < image.numel(); ++i) {
      const float v = image[i];
      const float want = v > 0.0F ? v : slope * v;
      EXPECT_EQ(std::memcmp(&want, out.data() + i, sizeof want), 0)
          << "slope " << slope << " v " << v << " op " << out[i];
      EXPECT_EQ(std::memcmp(&want, trained.data() + i, sizeof want), 0)
          << "slope " << slope << " v " << v << " kernel " << trained[i];
    }
  }
}

// The compiled network's quant op runs the quantizer nn::ActivationQuant
// trains with, so a one-op program gives the layer's eval bytes at every
// scale: abs-max from the smallest subnormal to FLT_MAX, where a float 2^e
// or 2^-e underflows or overflows at both ends.
TEST(QuantizedNetworkTest, QuantOpMatchesActivationQuantBytewise) {
  support::Rng rng(41);
  const Tensor noise = Tensor::randn(Shape{2, 4, 4}, rng);
  int cases = 0;
  for (const int bits : {2, 8, 16}) {
    ProgramOp quant;
    quant.kind = ProgramOpKind::kQuantAct;
    quant.bits = bits;
    const auto network = QuantizedNetwork::from_program(hand_program({quant}));
    nn::ActivationQuant layer(bits);
    for (int p = -149; p <= 128; ++p) {
      // Scale the noise so its abs-max is 2^p (FLT_MAX in place of 2^128).
      Tensor image = noise;
      const float top = p == 128 ? std::numeric_limits<float>::max()
                                 : std::ldexp(1.0F, p);
      const float peak = noise.abs_max();
      for (std::int64_t i = 0; i < image.numel(); ++i) {
        image[i] = static_cast<float>(static_cast<double>(noise[i]) / peak *
                                      static_cast<double>(top));
      }
      image[7] = top;
      const Tensor want = layer.forward(image, false);
      const Tensor got = network.run(image);
      ASSERT_EQ(got.numel(), want.numel());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            static_cast<std::size_t>(got.numel()) * sizeof(float)),
                0)
          << "bits " << bits << " abs-max 2^" << p;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 3 * 278);
}

// The affine op (folded batch norm) computes scale * x + bias as a rounded
// product, then a rounded sum, in every build: flightnn_inference compiles
// with -ffp-contract=off, so a host-tuned build cannot fuse the two into an
// FMA. At scale = x = 1 + 2^-12 and bias = -1 the exact product 1 + 2^-11 +
// 2^-24 rounds to 1 + 2^-11, so the op must give 2^-11; an FMA would keep
// the 2^-24.
TEST(QuantizedNetworkTest, AffineRoundsTheProductBeforeTheSum) {
  const float near_one = 1.0F + std::ldexp(1.0F, -12);
  ProgramOp affine;
  affine.kind = ProgramOpKind::kAffine;
  affine.scale = {near_one, near_one};
  affine.affine_bias = {-1.0F, -1.0F};
  const auto network = QuantizedNetwork::from_program(hand_program({affine}));
  const Tensor out = network.run(Tensor::full(Shape{2, 4, 4}, near_one));
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_EQ(out[i], std::ldexp(1.0F, -11)) << "element " << i;
  }
}

// The census walk follows the [2, 4, 4] input through the ops, so a program
// whose op cannot take the shape before it -- which run() would reject for
// every image -- is rejected at load.
TEST(QuantizedNetworkTest, FromProgramRejectsShapesThatDoNotFlow) {
  ProgramOp pool;
  pool.kind = ProgramOpKind::kMaxPool;
  pool.window = 2;
  pool.stride = 2;
  EXPECT_NO_THROW((void)QuantizedNetwork::from_program(hand_program({pool})));
  pool.window = 5;  // wider than the 4x4 plane
  EXPECT_THROW((void)QuantizedNetwork::from_program(hand_program({pool})),
               std::invalid_argument);
  ProgramOp affine;
  affine.kind = ProgramOpKind::kAffine;
  affine.scale.assign(3, 1.0F);  // three channels on a two-channel input
  affine.affine_bias.assign(3, 0.0F);
  EXPECT_THROW((void)QuantizedNetwork::from_program(hand_program({affine})),
               std::invalid_argument);
  // A residual whose main chain pools while the identity shortcut does not.
  pool.window = 2;
  EXPECT_THROW((void)QuantizedNetwork::from_program(
                   hand_program({residual_op(1, 0, 0, false), pool})),
               std::invalid_argument);
  // A 5x5 conv fits the 4x4 plane only when padded; unpadded, its output
  // (and so its memory row) would be empty.
  ProgramOp conv;
  conv.kind = ProgramOpKind::kShiftConv;
  conv.out_channels = 1;
  conv.in_channels = 2;
  conv.kernel = 5;
  conv.padding = 1;
  CompiledPlan compiled = ShiftPlan::compile_conv(
      Tensor::full(Shape{1, 2, 5, 5}, std::ldexp(1.0F, conv.pow2.e_min)), 2,
      conv.pow2);
  conv.term_count = compiled.term_count;
  conv.plan = std::move(compiled.plan);
  EXPECT_NO_THROW((void)QuantizedNetwork::from_program(hand_program({conv})));
  conv.padding = 0;
  EXPECT_THROW((void)QuantizedNetwork::from_program(hand_program({conv})),
               std::invalid_argument);
}

// run_op consumes its activation and the affine and leaky-ReLU ops rewrite
// it in place, so a residual block must give its main chain a copy of the
// block input and its shortcut the input itself. A main chain that wrote
// into the block input would give 4x + 2 below, and the shortcut would
// read the main chain's output.
TEST(QuantizedNetworkTest, ResidualMainChainDoesNotWriteTheBlockInput) {
  ProgramOp affine;
  affine.kind = ProgramOpKind::kAffine;
  affine.scale.assign(2, 2.0F);
  affine.affine_bias.assign(2, 1.0F);
  support::Rng rng(31);
  const Tensor x = Tensor::randn(Shape{2, 4, 4}, rng);

  // Empty shortcut, the identity: affine(x) + x = 3x + 1.
  const auto identity = QuantizedNetwork::from_program(
      hand_program({residual_op(1, 0, 0, false), affine}));
  const Tensor y = identity.run(x);
  ASSERT_EQ(y.shape(), x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(y[i], 3.0F * x[i] + 1.0F, 1e-5F) << "element " << i;
  }

  // A leaky-ReLU shortcut: affine(x) + leaky(x).
  const auto leaky = QuantizedNetwork::from_program(
      hand_program({residual_op(1, 1, 0, true), affine, leaky_op()}));
  const Tensor z = leaky.run(x);
  ASSERT_EQ(z.shape(), x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float shortcut = x[i] > 0.0F ? x[i] : 0.1F * x[i];
    EXPECT_NEAR(z[i], 2.0F * x[i] + 1.0F + shortcut, 1e-5F)
        << "element " << i;
  }
}

// profile() walks the same top-level ranges as run(): one row per top-level
// op, a residual block as one "residual" row, names equal to describe()'s
// tokens, and the rows' census summing to run()'s.
TEST(QuantizedNetworkTest, ProfileRowsMirrorTopLevelOps) {
  auto model = untrained_model(8);  // ResNet-10
  const NetworkProgram program = compile_program(*model, Shape{1, 3, 16, 16});
  std::vector<ProgramOpKind> top_level;
  for (std::size_t i = 0; i < program.ops.size();) {
    const ProgramOp& op = program.ops[i];
    top_level.push_back(op.kind);
    i += 1;
    if (op.kind == ProgramOpKind::kResidual) {
      i += static_cast<std::size_t>(op.main_ops + op.shortcut_ops +
                                    op.post_ops);
    }
  }
  const auto network = QuantizedNetwork::from_program(program);
  support::Rng rng(23);
  const Tensor image = Tensor::randn(Shape{3, 16, 16}, rng);
  const std::vector<StepProfile> rows = network.profile(image, 1);

  ASSERT_EQ(rows.size(), top_level.size());
  EXPECT_EQ(network.step_count(), rows.size());
  std::string tokens;
  NetworkOpCounts summed{};
  int residual_rows = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const bool residual = top_level[r] == ProgramOpKind::kResidual;
    EXPECT_EQ(rows[r].name == "residual", residual) << "row " << r;
    residual_rows += residual ? 1 : 0;
    if (!tokens.empty()) tokens += " -> ";
    tokens += rows[r].name;
    summed.shifts += rows[r].shifts;
    summed.adds += rows[r].adds;
  }
  EXPECT_GT(residual_rows, 0);
  EXPECT_EQ(tokens, network.describe());

  NetworkOpCounts counts{};
  (void)network.run(image, &counts);
  EXPECT_GT(counts.shifts, 0);
  EXPECT_EQ(summed.shifts, counts.shifts);
  EXPECT_EQ(summed.adds, counts.adds);
}

}  // namespace
}  // namespace flightnn::inference
