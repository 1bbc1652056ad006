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
//     bad section ranges, a live list out of order, ...). Replaying
//     these in tier-1 ctest keeps every past finding fixed.
//
// Every seed is deterministic: rerunning this tool reproduces the corpus
// byte for byte.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
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

// One fuzz_shift_plan program (see its decoder): header { e_min + 128,
// e_max - e_min + 2, flush, k_max, out_channels, in_channels, kernel,
// stride - 1, padding }, the live list (1 + a filter mask, or 0 + a count
// and raw entries stored as filter + 1), one negated byte per live filter
// (0 or 1, or 238 + n for a raw n >= 2), the word-count delta, each word's
// four lanes (0 for a zero byte, or 0xFF and the byte), the entry and term
// count deltas (a delta byte of 0 is -1, 1 is +1 and 2 is 0), then the
// input: its side past the kernel, its scale and its codes stored as
// q + 127.
struct PackProgram {
  int e_min = -6;
  int e_max = 0;
  bool flush = true;
  int k_max = 2;
  int out_channels = 2;
  int in_channels = 5;
  int kernel = 3;
  int stride = 1;
  int padding = 1;
  // Live filters; `raw` writes them as a list, else as a mask.
  std::vector<int> live = {0, 1};
  bool raw = false;
  std::vector<int> negated;  // per live filter; 0 when empty
  int word_delta = 0;
  int entry_delta = 0;
  int term_delta = 0;
  // units[((f * in + c) * kernel + ky) * kernel + kx], and the bytes of the
  // padding lanes (channels past in_channels), row by row.
  std::vector<int> units;
  int padding_byte = 0;

  // Byte of filter `f`'s lane at word `t`, `lane`.
  [[nodiscard]] int byte_at(int f, int t, int lane) const {
    const int kk = kernel * kernel;
    const int c = 4 * (t / kk) + lane;
    if (c >= in_channels) return padding_byte;
    return units[static_cast<std::size_t>((f * in_channels + c) * kk + t % kk)];
  }
  [[nodiscard]] Bytes bytes() const {
    const auto u8 = [](int v) { return static_cast<std::uint8_t>(v); };
    Bytes out = {u8(e_min + 128), u8(e_max - e_min + 2), u8(flush ? 1 : 0),
                 u8(k_max),       u8(out_channels),      u8(in_channels),
                 u8(kernel),      u8(stride - 1),        u8(padding)};
    if (raw) {
      out.push_back(0);
      out.push_back(u8(static_cast<int>(live.size())));
      for (const int f : live) out.push_back(u8(f + 1));
    } else {
      int mask = 0;
      for (const int f : live) mask |= 1 << f;
      out.push_back(1);
      out.push_back(u8(mask));
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      out.push_back(u8(i < negated.size() ? negated[i] : 0));
    }
    const auto delta = [](int d) { return d < 0 ? 0 : d > 0 ? 1 : 2; };
    out.push_back(u8(delta(word_delta)));
    const int taps = (in_channels + 3) / 4 * kernel * kernel;
    const int words = static_cast<int>(live.size()) * taps + word_delta;
    for (int w = 0; w < words; ++w) {
      for (int lane = 0; lane < 4; ++lane) {
        const std::size_t i = static_cast<std::size_t>(w / taps);
        const int b = i < live.size()
                          ? byte_at(std::max(live[i], 0), w % taps, lane)
                          : 1;
        if (b == 0) {
          out.push_back(0);
        } else {
          out.push_back(0xFF);
          out.push_back(u8(b));
        }
      }
    }
    out.push_back(u8(delta(entry_delta)));
    out.push_back(u8(delta(term_delta)));
    const int side = kernel + 1;
    out.push_back(1);  // side: kernel + 1
    out.push_back(4);  // scale exponent 0
    for (int i = 0; i < in_channels * side * side; ++i) {
      out.push_back(u8((i * 37) % 255));  // codes q = (i * 37) % 255 - 127
    }
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
    PackProgram p;
    p.out_channels = filters;
    p.in_channels = in_channels;
    p.kernel = kernel;
    p.padding = kernel / 2;
    p.live.clear();
    for (int f = 0; f < filters; ++f) p.live.push_back(f);
    const int weights = filters * in_channels * kernel * kernel;
    for (int i = 0; i < weights; ++i) {
      p.units.push_back(
          kLightNN2[(i * 7 + 1) % static_cast<int>(std::size(kLightNN2))]);
    }
    return p;
  };
  write_seed(dir, "lightnn2_conv3", lightnn2(3, 5, 3).bytes());
  write_seed(dir, "lightnn2_conv5", lightnn2(2, 3, 5).bytes());
  {
    PackProgram p = lightnn2(3, 9, 1);
    p.stride = 1;
    write_seed(dir, "lightnn2_linear", p.bytes());
    // FLightNN: filter 1 pruned (k_i = 0), filter 2 of one-term weights.
    p = lightnn2(3, 6, 3);
    p.live = {0, 2};
    for (int i = 54; i < 162; ++i) {
      int& u = p.units[static_cast<std::size_t>(i)];
      u = i < 108 ? 0 : (i % 3 == 0 ? 16 : -4);
    }
    write_seed(dir, "flightnn_pruned", p.bytes());
    // Stride 2 with padding 2.
    p = lightnn2(2, 4, 3);
    p.stride = 2;
    p.padding = 2;
    write_seed(dir, "lightnn2_stride2", p.bytes());
  }
  {
    // A filter reaching +128 packs negated: its words hold -128 for it.
    PackProgram p = lightnn2(2, 2, 1);
    p.units = {-128, 5, 64, -3};
    p.negated = {1, 0};
    write_seed(dir, "negated_128", p.bytes());
    p.negated = {240, 0};
    write_seed(dir, "negated_byte_2", p.bytes());
  }
  {
    // One nonzero weight in each 9 x 3 x 3 filter: 27 words for one entry.
    PackProgram p = lightnn2(8, 9, 3);
    std::fill(p.units.begin(), p.units.end(), 0);
    const int units[] = {5, -6, 12, -48, 80, 2, -96, 33};
    for (int f = 0; f < 8; ++f) {
      p.units[static_cast<std::size_t>(f * 81 + (f * 29) % 81)] =
          units[static_cast<std::size_t>(f)];
    }
    write_seed(dir, "sparse_live", p.bytes());
  }
  {
    PackProgram p = lightnn2(3, 5, 3);
    p.raw = true;
    p.live = {1, 0, 2};
    write_seed(dir, "live_unsorted", p.bytes());
    p.live = {0, 0, 2};
    write_seed(dir, "live_repeated", p.bytes());
    p.live = {0, 1, 3};
    write_seed(dir, "live_past_out", p.bytes());
    p.live = {-1, 0, 1};
    write_seed(dir, "live_negative", p.bytes());
  }
  {
    PackProgram p = lightnn2(3, 5, 3);
    p.word_delta = -1;
    write_seed(dir, "words_short", p.bytes());
    p.word_delta = 1;
    write_seed(dir, "words_long", p.bytes());
    p.word_delta = 0;
    p.padding_byte = 3;
    write_seed(dir, "padding_lane", p.bytes());
    p.padding_byte = 0;
    p.entry_delta = 1;
    write_seed(dir, "entries_high", p.bytes());
    p.entry_delta = -1;
    write_seed(dir, "entries_low", p.bytes());
    p.entry_delta = 0;
    p.term_delta = -1;
    write_seed(dir, "terms_low", p.bytes());
    p.term_delta = 0;
    // 11 = 8 + 4 - 1 takes three terms.
    p.units[4] = 11;
    write_seed(dir, "eleven_units_k2", p.bytes());
    p.k_max = 3;
    write_seed(dir, "eleven_units_k3", p.bytes());
    p.k_max = 2;
    p.units[4] = 0;
    std::fill(p.units.begin() + 45, p.units.begin() + 90, 0);
    write_seed(dir, "live_zero_filter", p.bytes());
  }
  {
    // Window [-3, 0]: terms past 8 units clamp to 2^0, so 24 takes three.
    PackProgram p = lightnn2(2, 4, 1);
    p.e_min = -3;
    p.k_max = 5;
    p.units = {24, -17, 12, 5, 3, 0, 1, -2};
    write_seed(dir, "window3_clamped", p.bytes());
    p.e_min = -62;
    p.units = {1, -7, 8, 0, 3, 5, 0, 2};
    write_seed(dir, "window_62_shifts", p.bytes());
    p.e_min = 1;
    p.e_max = 0;
    write_seed(dir, "window_inverted", p.bytes());
    p.e_min = 120;
    p.e_max = 127;
    write_seed(dir, "window_top", p.bytes());
    // 8 units of 2^125 is 2^128, past FLT_MAX.
    p.e_min = 125;
    write_seed(dir, "window_past_float", p.bytes());
  }
  {
    PackProgram p = lightnn2(2, 0, 3);
    write_seed(dir, "zero_geometry", p.bytes());
    p = lightnn2(2, 2, 1);
    p.k_max = 0;
    write_seed(dir, "k_max_zero", p.bytes());
  }
  write_seed(dir, "max_counts", pseudo_random(2048, 0xF1A9U));
}

// One deterministic seed per corruption class of the artifact loader's
// validation ladder (header, checksum, section table, op records, the int8
// pack's sections and counts, the load walk), plus two valid
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
  // Index of the first section of a kind; exits if the fixture lacks it.
  const auto find_index = [&](const Bytes& blob, SectionKind kind) {
    const ArtifactHeader header = header_of(blob);
    for (std::uint32_t i = 0; i < header.section_count; ++i) {
      if (section_at(blob, i).kind == static_cast<std::uint32_t>(kind)) {
        return i;
      }
    }
    std::fprintf(stderr, "artifact fixture lacks section kind %u\n",
                 static_cast<unsigned>(kind));
    std::exit(1);
  };
  const auto find_kind = [&](const Bytes& blob, SectionKind kind) {
    return section_at(blob, find_index(blob, kind));
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
  write_seed(dir, "artifact_v2",
             patch_header(vgg, [](ArtifactHeader& h) { h.version = 2; }));
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
    Bytes mutated = vgg;  // the first conv's live list, first two swapped
    const SectionDesc live = find_kind(mutated, SectionKind::kPackLive);
    std::int32_t pair[2];
    std::memcpy(pair, mutated.data() + live.offset, sizeof(pair));
    std::swap(pair[0], pair[1]);
    std::memcpy(mutated.data() + live.offset, pair, sizeof(pair));
    write_seed(dir, "artifact_live_unsorted", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // a negated byte of 2
    mutated[find_kind(mutated, SectionKind::kPackNegated).offset] = 2;
    write_seed(dir, "artifact_negated_2", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // the first words section one word short
    const std::uint32_t i = find_index(mutated, SectionKind::kPackWords);
    SectionDesc desc = section_at(mutated, i);
    desc.bytes -= sizeof(std::int32_t);
    std::memcpy(mutated.data() + sizeof(ArtifactHeader) +
                    i * sizeof(SectionDesc),
                &desc, sizeof(desc));
    write_seed(dir, "artifact_words_short", resealed(mutated));
  }
  {
    // The first conv reads the RGB image: byte 3 of a word is a padding
    // lane.
    Bytes mutated = vgg;
    mutated[find_kind(mutated, SectionKind::kPackWords).offset + 3] = 1;
    write_seed(dir, "artifact_padding_lane", resealed(mutated));
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
  // Stored counts the words do not give, and weights past a k_max of 1
  // (the fixture is LightNN-2): kBadProgram at adoption.
  write_seed(dir, "artifact_entries_high",
             patch_first_shift_conv(vgg, [](OpRecord& record, Bytes&) {
               ++record.entries;
             }));
  write_seed(dir, "artifact_term_count_low",
             patch_first_shift_conv(vgg, [](OpRecord& record, Bytes&) {
               --record.term_count;
             }));
  write_seed(dir, "artifact_k_max_1",
             patch_first_shift_conv(vgg, [](OpRecord& record, Bytes&) {
               record.k_max = 1;
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
  // Sections of v1's retired element kind and v2's retired shift stream
  // kind.
  for (const std::uint32_t kind : {2U, 6U}) {
    Bytes mutated = vgg;
    SectionDesc desc = section_at(mutated, 1);
    desc.kind = kind;
    std::memcpy(mutated.data() + sizeof(ArtifactHeader) + sizeof(SectionDesc),
                &desc, sizeof(desc));
    write_seed(dir, "artifact_retired_kind_" + std::to_string(kind),
               resealed(mutated));
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
