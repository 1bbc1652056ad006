// Regenerates the checked-in seed corpus under fuzz/corpus/.
//
//   make_seed_corpus <output-dir>     (normally fuzz/corpus)
//
// Two kinds of seeds are emitted per harness:
//
//   - valid blobs produced by the repo's own serializers, so the fuzzers
//     start from deep inside the accepted grammar instead of spending their
//     budget rediscovering the magic header;
//   - one regression seed per parser hardening check (bad magic, truncation,
//     bad section ranges, entry taps outside the filter, ...). Replaying
//     these in tier-1 ctest keeps every past finding fixed.
//
// Every seed is deterministic: rerunning this tool reproduces the corpus
// byte for byte.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/quantize_model.hpp"
#include "inference/network_program.hpp"
#include "models/networks.hpp"
#include "nn/sequential.hpp"
#include "serialize/artifact.hpp"
#include "serialize/model_io.hpp"

namespace fs = std::filesystem;

namespace {

using Bytes = std::vector<std::uint8_t>;

void write_seed(const fs::path& dir, const std::string& name,
                const Bytes& data) {
  std::ofstream file(dir / name, std::ios::binary);
  file.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", (dir / name).string().c_str());
    std::exit(1);
  }
  std::printf("  %-28s %5zu bytes\n", name.c_str(), data.size());
}

// Deterministic filler for the unstructured seeds (xorshift32).
Bytes pseudo_random(std::size_t count, std::uint32_t state) {
  Bytes data(count);
  for (auto& byte : data) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    byte = static_cast<std::uint8_t>(state);
  }
  return data;
}

// The same model fuzz_model_io replays checkpoints against; the valid
// checkpoint seed must load cleanly there.
std::unique_ptr<flightnn::nn::Sequential> harness_model() {
  flightnn::models::BuildOptions build;
  build.classes = 10;
  build.width_scale = 0.125F;
  build.seed = 7;
  return flightnn::models::build_network(flightnn::models::table1_network(1),
                                         build);
}

void emit_model_io(const fs::path& dir) {
  auto model = harness_model();
  const Bytes ckpt_valid = flightnn::serialize::save_state(*model);
  write_seed(dir, "ckpt_valid", ckpt_valid);
  {
    Bytes ckpt = ckpt_valid;
    ckpt[0] ^= 0xFF;
    write_seed(dir, "ckpt_bad_magic", ckpt);
    ckpt[0] ^= 0xFF;
    ckpt.resize(ckpt.size() / 2);
    write_seed(dir, "ckpt_truncated", ckpt);
  }

  write_seed(dir, "empty", {});
  write_seed(dir, "random_256", pseudo_random(256, 0x5EEDU));
}

// One fuzz_shift_plan program: header { e_min + 128, e_max - e_min + 2,
// flush, k_max, conv, filters, in_channels, kernel (conv only) }, then one
// { class, payload } per weight (decode_weight's classes: 0-9 on the grid as
// an int8 count of units, 10 = 128-135 units, 11 = +-0, 12 = NaN/+-inf,
// 13 = units plus a fraction, 14 = below half a unit, 15 = raw float bits).
struct PlanProgram {
  int e_min = -6;
  int e_max = 0;
  bool flush = true;
  int k_max = 2;
  bool conv = true;
  int filters = 1;
  int in_channels = 1;
  int kernel = 1;
  Bytes weights;

  // A weight of `units` x 2^e_min, |units| <= 127.
  PlanProgram& units(int count) {
    weights.push_back(0);
    weights.push_back(static_cast<std::uint8_t>(static_cast<std::int8_t>(count)));
    return *this;
  }
  PlanProgram& weight(std::uint8_t kind, Bytes payload) {
    weights.push_back(kind);
    weights.insert(weights.end(), payload.begin(), payload.end());
    return *this;
  }
  [[nodiscard]] Bytes bytes() const {
    Bytes out = {static_cast<std::uint8_t>(e_min + 128),
                 static_cast<std::uint8_t>(e_max - e_min + 2),
                 static_cast<std::uint8_t>(flush ? 1 : 0),
                 static_cast<std::uint8_t>(k_max),
                 static_cast<std::uint8_t>(conv ? 1 : 0),
                 static_cast<std::uint8_t>(filters),
                 static_cast<std::uint8_t>(in_channels)};
    if (conv) out.push_back(static_cast<std::uint8_t>(kernel));
    out.insert(out.end(), weights.begin(), weights.end());
    return out;
  }
};

void emit_shift_plan(const fs::path& dir) {
  write_seed(dir, "empty", {});
  write_seed(dir, "zeros_16", Bytes(16, 0));
  // Sums of at most two powers of two in [2^-6, 2^0], in units of 2^-6:
  // the values a LightNN-2 layer holds, its k_i = 1 and zero weights among
  // them.
  const int kLightNN2[] = {0,  1,   -2, 3,   5,  -6,  9,   12, -17, 24, 0,
                           40, -48, 64, 65,  -80, 96, 0,   -3, 4,   33, -66};
  const auto lightnn2 = [&](int filters, int in_channels, int kernel) {
    PlanProgram p;
    p.filters = filters;
    p.in_channels = in_channels;
    p.kernel = kernel;
    const int weights = filters * in_channels * kernel * kernel;
    for (int i = 0; i < weights; ++i) {
      p.units(kLightNN2[(i * 7) % static_cast<int>(std::size(kLightNN2))]);
    }
    return p;
  };
  write_seed(dir, "lightnn2_conv3", lightnn2(3, 5, 3).bytes());
  write_seed(dir, "lightnn2_conv5", lightnn2(2, 3, 5).bytes());
  {
    // A linear layer with a pruned filter and a k_i = 1 filter.
    PlanProgram p = lightnn2(3, 6, 1);
    p.conv = false;
    p.weights.clear();
    for (int i = 0; i < 6; ++i) p.units(0);
    for (int i = 0; i < 6; ++i) p.units(i % 2 == 0 ? 16 : -4);
    for (int i = 0; i < 6; ++i) p.units(kLightNN2[i + 3]);
    write_seed(dir, "flightnn_linear", p.bytes());
  }
  {
    // Window [-7, 0]: 2^0 is 128 units, and -2^0 - 2^0 is -256, which no
    // plan holds.
    PlanProgram p;
    p.e_min = -7;
    p.filters = 2;
    p.in_channels = 2;
    p.weight(10, {0}).units(-1).weight(10, {0x80}).units(64);
    write_seed(dir, "window7_128_units", p.bytes());
    p.weights.clear();
    p.weight(10, {0}).units(-1).units(3).weight(15, {0, 0, 0, 0xC0});
    write_seed(dir, "window7_256_units", p.bytes());
  }
  {
    // Window [-3, 0]: terms past 8 units clamp to 2^0, so 24 takes three.
    PlanProgram p;
    p.e_min = -3;
    p.k_max = 5;
    p.filters = 2;
    p.in_channels = 4;
    for (const int u : {24, -17, 12, 5, 3, 0, 1, -2}) p.units(u);
    write_seed(dir, "window3_clamped", p.bytes());
  }
  {
    PlanProgram p;
    p.filters = 2;
    p.in_channels = 2;
    p.units(3).weight(12, {0}).units(1).units(2);
    write_seed(dir, "nan_weight", p.bytes());
    p.weights.clear();
    p.units(3).weight(12, {1}).units(1).units(2);
    write_seed(dir, "inf_weight", p.bytes());
    p.weights.clear();
    p.units(3).weight(13, {0, 77}).units(1).units(2);
    write_seed(dir, "fraction_weight", p.bytes());
    p.weights.clear();
    p.units(3).units(11).units(1).units(2);
    write_seed(dir, "eleven_units_k2", p.bytes());
    p.weights.clear();
    p.k_max = 3;
    p.units(3).weight(15, {0, 0, 0x40, 0x40}).units(1).units(2);  // 3.0
    write_seed(dir, "192_units_k3", p.bytes());
    p.weights.clear();
    p.k_max = 2;
    p.weight(10, {0}).weight(10, {0x80}).units(1).units(2);
    write_seed(dir, "plus_minus_128", p.bytes());
    p.weights.clear();
    p.flush = false;
    p.units(3).weight(14, {30}).units(1).units(2);
    write_seed(dir, "tiny_no_flush", p.bytes());
  }
  {
    PlanProgram p = lightnn2(1, 2, 1);
    p.e_min = -62;
    write_seed(dir, "window_62_shifts", p.bytes());
    p.e_min = 1;
    p.e_max = 0;
    write_seed(dir, "window_inverted", p.bytes());
    p.weights.clear();
    p.units(1).units(-7).units(8).units(0);
    p.in_channels = 4;
    p.e_min = 120;
    p.e_max = 127;
    write_seed(dir, "window_top", p.bytes());
    // 8 units of 2^125 is 2^128, past FLT_MAX.
    p.e_min = 125;
    write_seed(dir, "window_past_float", p.bytes());
  }
  {
    PlanProgram p = lightnn2(2, 0, 3);
    write_seed(dir, "zero_geometry", p.bytes());
    p = lightnn2(2, 2, 1);
    p.k_max = 0;
    write_seed(dir, "k_max_zero", p.bytes());
  }
  write_seed(dir, "max_counts", pseudo_random(512, 0xF1A9U));
}

// One deterministic seed per corruption class of the artifact loader's
// validation ladder (header, checksum, section table, op records, plan
// streams, the int8 pack's refusals, the load walk), plus two valid
// artifacts -- a tiny VGG and a tiny ResNet (for residual-segment coverage)
// -- built by the repo's own compiler.
void emit_artifact(const fs::path& dir) {
  namespace ser = flightnn::serialize;
  using ser::ArtifactHeader;
  using ser::OpRecord;
  using ser::SectionDesc;
  using ser::SectionKind;

  const auto compile_blob = [](int network_id, float width_scale) {
    flightnn::models::BuildOptions build;
    build.classes = 4;
    build.width_scale = width_scale;
    build.seed = 7;
    auto model = flightnn::models::build_network(
        flightnn::models::table1_network(network_id), build);
    flightnn::core::install_lightnn(*model, 2);
    const auto program = flightnn::inference::compile_program(
        *model, flightnn::tensor::Shape{1, 3, 8, 8});
    return ser::build_artifact(program);
  };
  const Bytes vgg = compile_blob(4, 0.125F);
  write_seed(dir, "artifact_vgg_valid", vgg);
  write_seed(dir, "artifact_resnet_valid", compile_blob(2, 0.0625F));

  const auto header_of = [](const Bytes& blob) {
    ArtifactHeader header;
    std::memcpy(&header, blob.data(), sizeof(header));
    return header;
  };
  const auto patch_header = [&](Bytes blob, auto mutate) {
    ArtifactHeader header = header_of(blob);
    mutate(header);
    std::memcpy(blob.data(), &header, sizeof(header));
    return blob;
  };
  const auto section_at = [&](const Bytes& blob, std::size_t index) {
    SectionDesc desc;
    std::memcpy(&desc, blob.data() + sizeof(ArtifactHeader) +
                           index * sizeof(SectionDesc), sizeof(desc));
    return desc;
  };
  // The first (or last) section of a kind; exits if the fixture lacks it.
  const auto find_kind = [&](const Bytes& blob, SectionKind kind,
                             bool last = false) {
    const ArtifactHeader header = header_of(blob);
    bool found = false;
    SectionDesc match;
    for (std::uint32_t i = 0; i < header.section_count; ++i) {
      const SectionDesc desc = section_at(blob, i);
      if (desc.kind != static_cast<std::uint32_t>(kind)) continue;
      match = desc;
      found = true;
      if (!last) break;
    }
    if (!found) {
      std::fprintf(stderr, "artifact fixture lacks section kind %u\n",
                   static_cast<unsigned>(kind));
      std::exit(1);
    }
    return match;
  };
  const auto resealed = [](Bytes blob) {
    ser::rewrite_artifact_checksum(blob);
    return blob;
  };

  {
    Bytes mutated = vgg;
    mutated[0] ^= 0xFF;
    write_seed(dir, "artifact_bad_magic", mutated);
  }
  write_seed(dir, "artifact_bad_version",
             patch_header(vgg, [](ArtifactHeader& h) { h.version = 99; }));
  write_seed(dir, "artifact_bad_input_geom",
             patch_header(vgg, [](ArtifactHeader& h) { h.input_c = -1; }));
  {
    Bytes mutated = vgg;
    mutated.back() ^= 0x01;  // payload flip without reseal
    write_seed(dir, "artifact_bad_checksum", mutated);
  }
  {
    Bytes mutated = vgg;
    mutated.resize(sizeof(ArtifactHeader) / 2);
    write_seed(dir, "artifact_truncated_header", mutated);
    mutated = vgg;
    mutated.resize(mutated.size() - 48);
    write_seed(dir, "artifact_truncated_payload", mutated);
  }
  {
    Bytes mutated = vgg;  // misalign the first per-op section
    SectionDesc desc = section_at(mutated, 1);
    desc.offset += 4;
    std::memcpy(mutated.data() + sizeof(ArtifactHeader) + sizeof(SectionDesc),
                &desc, sizeof(desc));
    write_seed(dir, "artifact_section_misaligned", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // section range escaping the file
    SectionDesc desc = section_at(mutated, 1);
    desc.bytes = ~std::uint64_t{0} / 2;
    std::memcpy(mutated.data() + sizeof(ArtifactHeader) + sizeof(SectionDesc),
                &desc, sizeof(desc));
    write_seed(dir, "artifact_section_oob", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // first op record: unknown kind
    const SectionDesc program = find_kind(mutated, SectionKind::kProgram);
    OpRecord record;
    std::memcpy(&record, mutated.data() + program.offset, sizeof(record));
    record.kind = 0xAB;
    std::memcpy(mutated.data() + program.offset, &record, sizeof(record));
    write_seed(dir, "artifact_bad_op_kind", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // plan sign outside {-1, +1}
    const SectionDesc sign = find_kind(mutated, SectionKind::kPlanSign);
    mutated[sign.offset] = 5;
    write_seed(dir, "artifact_bad_sign", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // shift beyond the exponent window
    const SectionDesc shift = find_kind(mutated, SectionKind::kPlanShift);
    mutated[shift.offset] = 60;
    write_seed(dir, "artifact_bad_shift", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // non-monotone filter prefix
    const SectionDesc begin = find_kind(mutated, SectionKind::kPlanFilterBegin);
    std::int64_t hostile = -1;
    std::memcpy(mutated.data() + begin.offset + 8, &hostile, sizeof(hostile));
    write_seed(dir, "artifact_bad_filter_begin", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // first conv entry's channel past in_channels
    const SectionDesc channel = find_kind(mutated, SectionKind::kPlanChannel);
    const std::int32_t hostile = 0x7FFFFFFF;
    std::memcpy(mutated.data() + channel.offset, &hostile, sizeof(hostile));
    write_seed(dir, "artifact_bad_channel", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // the classifier (a 1x1 conv) with kx = 1
    const SectionDesc kx = find_kind(mutated, SectionKind::kPlanKx, true);
    const std::int16_t hostile = 1;
    std::memcpy(mutated.data() + kx.offset, &hostile, sizeof(hostile));
    write_seed(dir, "artifact_bad_kx", resealed(mutated));
  }
  // The first shift conv's record, patched by `mutate(record, blob)`.
  const auto patch_first_shift_conv = [&](Bytes blob, auto mutate) {
    const SectionDesc program = find_kind(blob, SectionKind::kProgram);
    for (std::uint32_t i = 0; i < header_of(blob).op_count; ++i) {
      OpRecord record;
      std::uint8_t* at = blob.data() + program.offset + i * sizeof(record);
      std::memcpy(&record, at, sizeof(record));
      if (record.kind != static_cast<std::uint32_t>(
                             flightnn::inference::ProgramOpKind::kShiftConv)) {
        continue;
      }
      mutate(record, blob);
      std::memcpy(at, &record, sizeof(record));
      return resealed(blob);
    }
    std::fprintf(stderr, "artifact fixture lacks a shift conv\n");
    std::exit(1);
  };
  // A 61-shift window with one shift-61 entry: check_plan accepts it, and
  // the int8 pack refuses it at load (kBadProgram).
  write_seed(dir, "artifact_shift_61",
             patch_first_shift_conv(vgg, [&](OpRecord& record, Bytes& blob) {
               record.e_min = record.e_max - 61;
               const SectionDesc shift =
                   section_at(blob, record.sec[ser::kRoleShift]);
               blob[shift.offset] = 61;
             }));
  // An exponent window near INT_MIN: run()'s scale exponent would overflow.
  write_seed(dir, "artifact_e_min_near_int_min",
             patch_first_shift_conv(vgg, [](OpRecord& record, Bytes&) {
               const int levels = record.e_max - record.e_min;
               record.e_min = std::numeric_limits<std::int32_t>::min() + 2;
               record.e_max = record.e_min + levels;
             }));
  // Kernel and padding of 2^24: a non-empty output whose plane run() would
  // refuse, which the load walk must refuse before it allocates.
  write_seed(dir, "artifact_huge_kernel_padding",
             patch_first_shift_conv(vgg, [](OpRecord& record, Bytes&) {
               record.kernel = std::int64_t{1} << 24;
               record.padding = std::int64_t{1} << 24;
             }));
  {
    Bytes mutated = vgg;  // a section of v1's retired element kind
    SectionDesc desc = section_at(mutated, 1);
    desc.kind = 2;
    std::memcpy(mutated.data() + sizeof(ArtifactHeader) + sizeof(SectionDesc),
                &desc, sizeof(desc));
    write_seed(dir, "artifact_retired_kind", resealed(mutated));
  }

  write_seed(dir, "empty", {});
  write_seed(dir, "random_512", pseudo_random(512, 0xA97FAC7U));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 1;
  }
  const fs::path root(argv[1]);
  const fs::path model_io = root / "model_io";
  const fs::path shift_plan = root / "shift_plan";
  const fs::path artifact = root / "artifact";
  fs::create_directories(model_io);
  fs::create_directories(shift_plan);
  fs::create_directories(artifact);
  std::printf("%s:\n", model_io.string().c_str());
  emit_model_io(model_io);
  std::printf("%s:\n", shift_plan.string().c_str());
  emit_shift_plan(shift_plan);
  std::printf("%s:\n", artifact.string().c_str());
  emit_artifact(artifact);
  return 0;
}
