#include "serialize/model_io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/flightnn_transform.hpp"
#include "nn/batchnorm.hpp"
#include "serialize/wire.hpp"

namespace flightnn::serialize {

namespace {

constexpr char kCheckpointMagic[] = "FLNNCKPT1";

// Hardened byte-stream helpers shared with the artifact format (wire.hpp).
using Writer = ByteWriter;
using Reader = ByteReader;

void write_tensor(Writer& writer, const tensor::Tensor& t) {
  writer.u32(static_cast<std::uint32_t>(t.shape().rank()));
  for (std::size_t axis = 0; axis < t.shape().rank(); ++axis) {
    writer.i64(t.shape()[axis]);
  }
  writer.floats(t.data(), t.numel());
}

void read_tensor_into(Reader& reader, tensor::Tensor& t, const char* what) {
  const std::uint32_t rank = reader.u32();
  // Each dim costs 8 bytes of payload; bound the rank by what the buffer
  // can actually hold before sizing the dims vector (a hostile rank of
  // 2^32-1 would otherwise request a 32 GiB allocation up front).
  if (rank > reader.remaining() / sizeof(std::int64_t)) {
    throw std::runtime_error(std::string("serialize: rank exceeds buffer for ") +
                             what);
  }
  std::vector<std::int64_t> dims(rank);
  for (auto& d : dims) d = reader.i64();
  if (tensor::Shape(dims) != t.shape()) {
    throw std::runtime_error(std::string("serialize: shape mismatch for ") + what);
  }
  reader.floats(t.data(), t.numel());
}

// Batch-norm layers in deterministic traversal order.
std::vector<nn::BatchNorm2d*> batchnorm_layers(nn::Sequential& model) {
  std::vector<nn::BatchNorm2d*> layers;
  model.visit([&](nn::Layer& layer) {
    if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&layer)) layers.push_back(bn);
  });
  return layers;
}

std::vector<core::FLightNNTransform*> flightnn_transforms(nn::Sequential& model) {
  std::vector<core::FLightNNTransform*> transforms;
  for (auto* transform : model.transforms()) {
    if (auto* fl = dynamic_cast<core::FLightNNTransform*>(transform)) {
      transforms.push_back(fl);
    }
  }
  return transforms;
}

}  // namespace

// --- Checkpoints -----------------------------------------------------------------

std::vector<std::uint8_t> save_state(nn::Sequential& model) {
  Writer writer;
  writer.bytes(kCheckpointMagic, sizeof(kCheckpointMagic));

  const auto params = model.parameters();
  writer.u32(static_cast<std::uint32_t>(params.size()));
  for (auto* param : params) write_tensor(writer, param->value);

  const auto bns = batchnorm_layers(model);
  writer.u32(static_cast<std::uint32_t>(bns.size()));
  for (auto* bn : bns) {
    write_tensor(writer, bn->running_mean());
    write_tensor(writer, bn->running_var());
  }

  const auto transforms = flightnn_transforms(model);
  writer.u32(static_cast<std::uint32_t>(transforms.size()));
  for (auto* transform : transforms) {
    const auto& thresholds = transform->thresholds();
    writer.u32(static_cast<std::uint32_t>(thresholds.size()));
    for (float t : thresholds) writer.f32(t);
  }
  return writer.take();
}

void save_state(nn::Sequential& model, const std::string& path) {
  const auto buffer = save_state(model);
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("save_state: cannot open " + path);
  file.write(reinterpret_cast<const char*>(buffer.data()),
             static_cast<std::streamsize>(buffer.size()));
  if (!file) throw std::runtime_error("save_state: write failed for " + path);
}

void load_state(nn::Sequential& model, const std::vector<std::uint8_t>& buffer) {
  Reader reader(buffer);
  char magic[sizeof(kCheckpointMagic)] = {};
  reader.bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    throw std::runtime_error("load_state: bad magic");
  }

  const auto params = model.parameters();
  if (reader.u32() != params.size()) {
    throw std::runtime_error("load_state: parameter count mismatch");
  }
  for (auto* param : params) read_tensor_into(reader, param->value, param->name.c_str());

  const auto bns = batchnorm_layers(model);
  if (reader.u32() != bns.size()) {
    throw std::runtime_error("load_state: batch-norm count mismatch");
  }
  for (auto* bn : bns) {
    // running stats are exposed const; cast through the accessors' storage.
    read_tensor_into(reader, const_cast<tensor::Tensor&>(bn->running_mean()),
                     "bn.running_mean");
    read_tensor_into(reader, const_cast<tensor::Tensor&>(bn->running_var()),
                     "bn.running_var");
  }

  const auto transforms = flightnn_transforms(model);
  if (reader.u32() != transforms.size()) {
    throw std::runtime_error("load_state: transform count mismatch");
  }
  for (auto* transform : transforms) {
    const std::uint32_t count = reader.u32();
    if (count > reader.remaining() / sizeof(float)) {
      throw std::runtime_error("load_state: threshold count exceeds buffer");
    }
    std::vector<float> thresholds(count);
    for (auto& t : thresholds) t = reader.f32();
    transform->set_thresholds(std::move(thresholds));
  }
  if (!reader.exhausted()) {
    throw std::runtime_error("load_state: trailing bytes");
  }
}

void load_state(nn::Sequential& model, const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("load_state: cannot open " + path);
  std::vector<std::uint8_t> buffer(
      (std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  load_state(model, buffer);
}

}  // namespace flightnn::serialize
