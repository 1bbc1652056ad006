// flightnn: command-line front end to the library.
//
//   flightnn train   --network 1 --dataset cifar10 --quantizer flightnn
//                    [--epochs 5] [--width-scale 0.25] [--lambda1 2.4e-4]
//                    [--threshold-lr 0.02] [--checkpoint out.ckpt]
//   flightnn eval    --network 1 --dataset cifar10 --quantizer flightnn
//                    --checkpoint out.ckpt [--top-k 1] [--engine integer|float]
//   flightnn export  --network 1 --dataset cifar10 --quantizer lightnn2
//                    --checkpoint out.ckpt --artifact out.flnart
//   flightnn predict --network 1 --dataset cifar10 --quantizer flightnn
//                    --checkpoint out.ckpt [--index 0]
//
// Datasets are the synthetic stand-ins (cifar10 / svhn / cifar100 /
// imagenet); networks are the paper's Table-1 ids (1-8). The integer engine
// (`eval --engine integer`, `export`, `predict`) runs shift-coded models
// only (lightnn1|lightnn2|flightnn); a full or fixed4 model evaluates with
// `--engine float`.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/quantize_model.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "eval/storage.hpp"
#include "inference/quantized_network.hpp"
#include "models/networks.hpp"
#include "serialize/artifact.hpp"
#include "serialize/model_io.hpp"
#include "support/argparse.hpp"

namespace {

using namespace flightnn;

data::DatasetSpec dataset_by_name(const std::string& name, double scale) {
  if (name == "cifar10") return data::cifar10_like(static_cast<float>(scale));
  if (name == "svhn") return data::svhn_like(static_cast<float>(scale));
  if (name == "cifar100") return data::cifar100_like(static_cast<float>(scale));
  if (name == "imagenet") return data::imagenet_like(static_cast<float>(scale));
  throw std::invalid_argument("unknown dataset: " + name +
                              " (cifar10|svhn|cifar100|imagenet)");
}

// Build the network + install the requested quantizer.
std::unique_ptr<nn::Sequential> build(const support::ArgParser& args,
                                      const data::DatasetSpec& spec) {
  const int network_id = args.get_int("--network");
  models::BuildOptions build;
  build.in_channels = spec.channels;
  build.classes = spec.classes;
  build.width_scale = static_cast<float>(args.get_double("--width-scale"));
  build.seed = static_cast<std::uint64_t>(args.get_int("--seed"));
  auto model = models::build_network(models::table1_network(network_id), build);

  const std::string quantizer = args.get("--quantizer");
  if (quantizer == "full") {
    // no transform
  } else if (quantizer == "lightnn1") {
    core::install_lightnn(*model, 1);
  } else if (quantizer == "lightnn2") {
    core::install_lightnn(*model, 2);
  } else if (quantizer == "fixed4") {
    core::install_fixed_point(*model, 4);
  } else if (quantizer == "flightnn") {
    core::FLightNNConfig fl;
    fl.lambdas = {static_cast<float>(args.get_double("--lambda0")),
                  static_cast<float>(args.get_double("--lambda1"))};
    core::install_flightnn(*model, fl);
  } else {
    throw std::invalid_argument(
        "unknown quantizer: " + quantizer +
        " (full|lightnn1|lightnn2|fixed4|flightnn)");
  }
  return model;
}

void add_common_flags(support::ArgParser& args) {
  args.add_flag("--network", "Table-1 network id (1-8)", "1");
  args.add_flag("--dataset", "cifar10|svhn|cifar100|imagenet", "cifar10");
  args.add_flag("--dataset-scale", "dataset size multiplier", "0.5");
  args.add_flag("--noise", "override dataset noise level (-1 = preset)", "-1");
  args.add_flag("--quantizer", "full|lightnn1|lightnn2|fixed4|flightnn",
                "flightnn");
  args.add_flag("--width-scale", "channel-count multiplier", "0.25");
  args.add_flag("--seed", "build/train seed", "1");
  args.add_flag("--lambda0", "FLightNN level-0 group-lasso weight", "8e-5");
  args.add_flag("--lambda1", "FLightNN level-1 group-lasso weight", "2.4e-4");
}

data::TrainTest load_data(const support::ArgParser& args,
                          data::DatasetSpec& spec_out) {
  spec_out = dataset_by_name(args.get("--dataset"),
                             args.get_double("--dataset-scale"));
  const double noise = args.get_double("--noise");
  if (noise >= 0.0) spec_out.noise = static_cast<float>(noise);
  return data::make_synthetic(spec_out);
}

int cmd_train(const std::vector<std::string>& argv) {
  support::ArgParser args("flightnn train", "train a quantized model");
  add_common_flags(args);
  args.add_flag("--epochs", "training epochs", "5");
  args.add_flag("--batch-size", "mini-batch size", "32");
  args.add_flag("--lr", "Adam learning rate", "3e-3");
  args.add_flag("--threshold-lr", "FLightNN threshold learning rate", "0.02");
  args.add_flag("--checkpoint", "write checkpoint here", "");
  if (!args.parse(argv)) {
    std::fprintf(stderr, "%s\n%s", args.error().c_str(), args.usage().c_str());
    return 2;
  }

  data::DatasetSpec spec;
  const auto split = load_data(args, spec);
  auto model = build(args, spec);

  core::TrainConfig train;
  train.epochs = args.get_int("--epochs");
  train.batch_size = args.get_int("--batch-size");
  train.learning_rate = static_cast<float>(args.get_double("--lr"));
  train.threshold_learning_rate =
      static_cast<float>(args.get_double("--threshold-lr"));
  train.seed = static_cast<std::uint64_t>(args.get_int("--seed"));
  train.verbose = true;

  core::Trainer trainer(*model, train);
  const int top_k = spec.name == "imagenet-syn" ? 5 : 1;
  const auto fit = trainer.fit(split.train, split.test, top_k);
  std::printf("test accuracy (top-%d): %.2f%%\n", top_k,
              fit.test_accuracy * 100.0);
  std::printf("mean k: %.2f, storage: %.4f MB\n", eval::model_mean_k(*model),
              eval::model_storage_bytes(*model) / (1024.0 * 1024.0));

  const std::string checkpoint = args.get("--checkpoint");
  if (!checkpoint.empty()) {
    serialize::save_state(*model, checkpoint);
    std::printf("checkpoint written: %s\n", checkpoint.c_str());
  }
  return 0;
}

int cmd_eval(const std::vector<std::string>& argv) {
  support::ArgParser args("flightnn eval", "evaluate a checkpoint");
  add_common_flags(args);
  args.add_flag("--checkpoint", "checkpoint to load", std::nullopt);
  args.add_flag("--top-k", "top-k accuracy", "1");
  args.add_flag("--engine", "float|integer", "float");
  if (!args.parse(argv)) {
    std::fprintf(stderr, "%s\n%s", args.error().c_str(), args.usage().c_str());
    return 2;
  }
  // Refused before any work: a misspelt engine must not report the float
  // path's accuracy as if it had been asked for.
  const std::string engine = args.get("--engine");
  if (engine != "float" && engine != "integer") {
    std::fprintf(stderr, "--engine must be float or integer, got '%s'\n%s",
                 engine.c_str(), args.usage().c_str());
    return 2;
  }

  data::DatasetSpec spec;
  const auto split = load_data(args, spec);
  auto model = build(args, spec);
  serialize::load_state(*model, args.get("--checkpoint"));

  const int top_k = args.get_int("--top-k");
  if (engine == "integer") {
    auto network = inference::QuantizedNetwork::compile(
        *model, tensor::Shape{1, spec.channels, spec.height, spec.width});
    inference::NetworkOpCounts counts{};
    const double accuracy = network.evaluate(split.test, top_k, &counts);
    std::printf("integer-engine accuracy (top-%d): %.2f%%\n", top_k,
                accuracy * 100.0);
    std::printf("per image: %lld shifts, %lld adds\n",
                static_cast<long long>(counts.shifts / counts.images),
                static_cast<long long>(counts.adds / counts.images));
  } else {
    core::TrainConfig unused;
    core::Trainer trainer(*model, unused);
    std::printf("float-path accuracy (top-%d): %.2f%%\n", top_k,
                trainer.evaluate(split.test, top_k) * 100.0);
  }
  return 0;
}

int cmd_export(const std::vector<std::string>& argv) {
  support::ArgParser args("flightnn export",
                          "compile a checkpoint into a deployment artifact");
  add_common_flags(args);
  args.add_flag("--checkpoint", "checkpoint to load", std::nullopt);
  args.add_flag("--artifact", "write the .flnart artifact here", std::nullopt);
  if (!args.parse(argv)) {
    std::fprintf(stderr, "%s\n%s", args.error().c_str(), args.usage().c_str());
    return 2;
  }

  data::DatasetSpec spec;
  (void)load_data(args, spec);
  auto model = build(args, spec);
  serialize::load_state(*model, args.get("--checkpoint"));

  const inference::NetworkProgram program = inference::compile_program(
      *model, tensor::Shape{1, spec.channels, spec.height, spec.width});
  // Adopt the program before writing it: a plan the int8 pack cannot run
  // fails here, so no artifact that cannot load is ever written.
  (void)inference::QuantizedNetwork::from_program(program);
  const std::string path = args.get("--artifact");
  serialize::save_artifact(program, path);
  std::printf("artifact: %zu ops -> %s (paper storage %.0f bytes)\n",
              program.ops.size(), path.c_str(),
              eval::model_storage_bytes(*model));
  return 0;
}

int cmd_predict(const std::vector<std::string>& argv) {
  support::ArgParser args("flightnn predict", "classify one test image");
  add_common_flags(args);
  args.add_flag("--checkpoint", "checkpoint to load", std::nullopt);
  args.add_flag("--index", "test-set image index", "0");
  if (!args.parse(argv)) {
    std::fprintf(stderr, "%s\n%s", args.error().c_str(), args.usage().c_str());
    return 2;
  }

  data::DatasetSpec spec;
  const auto split = load_data(args, spec);
  auto model = build(args, spec);
  serialize::load_state(*model, args.get("--checkpoint"));

  const auto index = static_cast<std::int64_t>(args.get_int("--index"));
  auto network = inference::QuantizedNetwork::compile(
      *model, tensor::Shape{1, spec.channels, spec.height, spec.width});
  const tensor::Tensor logits = network.run(split.test.image(index));
  std::int64_t best = 0;
  for (std::int64_t c = 1; c < logits.numel(); ++c) {
    if (logits[c] > logits[best]) best = c;
  }
  std::printf("image %lld: predicted class %lld, true class %d\n",
              static_cast<long long>(index), static_cast<long long>(best),
              split.test.labels[static_cast<std::size_t>(index)]);
  return 0;
}

void print_global_usage() {
  std::printf(
      "flightnn <command> [flags]\n"
      "commands:\n"
      "  train    train a quantized model on a synthetic dataset\n"
      "  eval     evaluate a checkpoint (float or integer engine)\n"
      "  export   compile a checkpoint into a .flnart deployment artifact\n"
      "  predict  classify one test image with the integer engine\n"
      "run `flightnn <command> --help-placeholder x` to list flags.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_global_usage();
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> rest(argv + 2, argv + argc);
  try {
    if (command == "train") return cmd_train(rest);
    if (command == "eval") return cmd_eval(rest);
    if (command == "export") return cmd_export(rest);
    if (command == "predict") return cmd_predict(rest);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  print_global_usage();
  return 2;
}
