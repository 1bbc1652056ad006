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

void emit_shift_plan(const fs::path& dir) {
  // Byte programs for fuzz_shift_plan's decoder: header is
  // { e_min, e_max_span, flush, filters, terms, in_channels, kernel,
  //   elements_per_filter }, then per term { filter, level, count, then
  //   count x { sign, exponent } }.
  write_seed(dir, "empty", {});
  write_seed(dir, "zeros_16", Bytes(16, 0));
  write_seed(dir, "valid_small",
             {5, 6, 1, 4, 2, 3, 3, 9,
              /*term0*/ 0, 1, 2, /*w*/ 1, 0xFB, /*w*/ 0xFF, 0xFC,
              /*term1*/ 3, 0, 1, /*w*/ 1, 0xFA});
  write_seed(dir, "oob_filter",
             {5, 6, 0, 2, 1, 1, 1, 4,
              /*term0*/ 0x7F, 0, 1, /*w*/ 1, 0xFB});
  write_seed(dir, "negative_filter",
             {5, 6, 0, 2, 1, 1, 1, 4,
              /*term0*/ 0x80, 0, 1, /*w*/ 1, 0xFB});
  write_seed(dir, "bad_sign",
             {5, 6, 0, 2, 1, 1, 1, 4,
              /*term0*/ 0, 0, 1, /*w*/ 5, 0xFB});
  write_seed(dir, "far_exponent",
             {5, 6, 0, 2, 1, 1, 1, 4,
              /*term0*/ 0, 0, 1, /*w*/ 1, 0x40});
  write_seed(dir, "zero_geometry",
             {5, 6, 0, 2, 1, 0, 0, 4,
              /*term0*/ 0, 0, 1, /*w*/ 1, 0xFB});
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
