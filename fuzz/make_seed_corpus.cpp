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
//     a count past the bytes left, a live list out of order, ...). Replaying
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
// stride - 1, padding }, the live list (1 + a filter mask of one byte per
// eight filters, at least one, or 0 + a count and raw entries stored as
// filter + 1), one negated byte per live filter
// (0 or 1, or 238 + n for a raw n >= 2), the word-count delta, each word's
// four lanes (0 for a zero byte, or 0xFF and the byte), the entry and term
// count deltas (a delta byte of 0 is -1, 1 is +1 and 2 is 0), then the
// input: its side past the kernel, its scale and its codes stored as
// q + 128.
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
      std::uint64_t mask = 0;
      for (const int f : live) mask |= std::uint64_t{1} << f;
      out.push_back(1);
      for (int b = 0; b < std::max(1, (out_channels + 7) / 8); ++b) {
        out.push_back(u8(static_cast<int>(mask >> (8 * b) & 0xFFU)));
      }
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
      out.push_back(u8((i * 37) % 255));  // codes q = (i * 37) % 255 - 128
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
    // 17 live filters, one past a block of the kernels' weight order, on a
    // 4x4 output plane (side 4, kernel 3, padding 1): the filter tile's
    // narrow plane with a masked last block.
    PackProgram p = lightnn2(17, 5, 3);
    write_seed(dir, "lightnn2_17_filters_4x4", p.bytes());
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

// One fuzz_compile_conv program (see its decoder): header { e_min + 126,
// e_max - e_min, k_max - 1, flush, filters - 1, channels - 1, kernel - 1 or
// 128 for a linear layer }, then per filter a mode byte (0 for a filter of
// zeros, or 255 and its weights), each weight a class byte and its payload.
struct ConvProgram {
  int e_min = -6;
  int e_max = 0;
  int k_max = 2;
  bool flush = true;
  int filters = 3;
  int channels = 5;
  int kernel = 3;  // 0 for a linear layer
  // Per filter, each weight's bytes; an empty filter is a filter of zeros.
  std::vector<std::vector<Bytes>> weights;

  [[nodiscard]] int row() const {
    return channels * std::max(kernel, 1) * std::max(kernel, 1);
  }
  [[nodiscard]] Bytes bytes() const {
    const auto u8 = [](int v) { return static_cast<std::uint8_t>(v); };
    Bytes out = {u8(e_min + 126), u8(e_max - e_min), u8(k_max - 1),
                 u8(flush ? 1 : 0), u8(filters - 1),  u8(channels - 1),
                 u8(kernel == 0 ? 128 : kernel - 1)};
    for (int f = 0; f < filters; ++f) {
      const auto i = static_cast<std::size_t>(f);
      if (i >= weights.size() || weights[i].empty()) {
        out.push_back(0);
        continue;
      }
      out.push_back(255);
      for (const Bytes& w : weights[i]) out.insert(out.end(), w.begin(), w.end());
    }
    return out;
  }
};

// The weight classes of fuzz_compile_conv's decoder.
Bytes units_weight(int u) {  // u in [-129, 129]
  if (u == 0) return {0};
  if (u >= 128) return {232, static_cast<std::uint8_t>(u == 128 ? 0 : 2)};
  if (u == -129) return {232, 3};
  return {160, static_cast<std::uint8_t>(u)};
}
// One ulp past 3 units, up or down.
Bytes ulp_weight(bool down) {
  return {176, static_cast<std::uint8_t>(4 << 1 | (down ? 1 : 0))};
}
Bytes nan_weight(bool quiet, bool negative, std::uint8_t payload) {
  return {192, static_cast<std::uint8_t>((quiet ? 2 : 0) | (negative ? 1 : 0)),
          payload};
}
Bytes inf_weight(bool negative) {
  return {static_cast<std::uint8_t>(negative ? 209 : 208)};
}
Bytes subnormal_weight(bool negative) {
  return {216, static_cast<std::uint8_t>(0x5A << 1 | (negative ? 1 : 0)), 0x3C,
          0x11};
}

void emit_compile_conv(const fs::path& dir) {
  write_seed(dir, "empty", {});
  // Sums of at most two powers of two in [2^-6, 2^0], in units of 2^-6.
  const int kLightNN2[] = {0,  1,   -2, 3,   5,  -6,  9,   12, -17, 24, 0,
                           40, -48, 64, 65,  -80, 96, 0,   -3, 4,   33, -66};
  // Every filter live, on LightNN-2 values.
  const auto lightnn2 = [&](int filters, int channels, int kernel) {
    ConvProgram p;
    p.filters = filters;
    p.channels = channels;
    p.kernel = kernel;
    int i = 0;
    p.weights.resize(static_cast<std::size_t>(filters));
    for (auto& filter : p.weights) {
      for (int e = 0; e < p.row(); ++e, ++i) {
        filter.push_back(units_weight(
            kLightNN2[(i * 7 + 1) % static_cast<int>(std::size(kLightNN2))]));
      }
    }
    return p;
  };
  {
    ConvProgram p = lightnn2(4, 3, 3);
    p.weights[2].clear();  // pruned
    write_seed(dir, "lightnn2_conv3", p.bytes());
    write_seed(dir, "lightnn2_linear", lightnn2(7, 9, 0).bytes());
  }
  {
    // FLightNN: 20 filters of 9 x 3 x 3, pruned (k_i = 0), one-term and
    // LightNN-2 filters in turn.
    ConvProgram p = lightnn2(20, 9, 3);
    for (int f = 0; f < 20; ++f) {
      auto& filter = p.weights[static_cast<std::size_t>(f)];
      if (f % 3 == 0) filter.clear();
      if (f % 3 != 1) continue;
      for (std::size_t e = 0; e < filter.size(); ++e) {
        filter[e] = units_weight(e % 4 == 0 ? 0 : e % 4 == 1 ? 16 : -4);
      }
    }
    write_seed(dir, "flightnn_20x9x3", p.bytes());
  }
  {
    // A filter reaching +128 packs negated; +128 beside -128 is refused.
    ConvProgram p = lightnn2(2, 5, 3);
    p.weights[1][44] = units_weight(128);
    write_seed(dir, "negated_128", p.bytes());
    p.weights[1][0] = units_weight(-128);
    write_seed(dir, "plus_minus_128", p.bytes());
  }
  {
    // One weight no plan holds, at the last element of the middle filter
    // (row 45: past five vectors of 8 floats), or one that lowers.
    const auto one = [&](const char* name, Bytes weight, int k_max = 2) {
      ConvProgram p = lightnn2(3, 5, 3);
      p.k_max = k_max;
      p.weights[1][44] = std::move(weight);
      write_seed(dir, name, p.bytes());
    };
    one("nan_quiet", nan_weight(true, false, 0x21));
    one("nan_signaling", nan_weight(false, true, 0x00));
    one("inf_positive", inf_weight(false));
    one("inf_negative", inf_weight(true));
    one("subnormal", subnormal_weight(false));
    one("ulp_above", ulp_weight(false));
    one("ulp_below", ulp_weight(true));
    one("units_129", units_weight(129));
    one("units_minus_129", units_weight(-129));
    // 11 = 8 + 4 - 1 takes three terms.
    one("eleven_units_k2", units_weight(11));
    one("eleven_units_k3", units_weight(11), 3);
    // 127 = 64 + 64 - 1: the filter's greatest weight below +128 packs as
    // it is.
    one("units_127_k3", units_weight(127), 3);
    one("negative_zero", {64});
  }
  {
    // -0.0 throughout a filter, which is pruned.
    ConvProgram p = lightnn2(2, 7, 0);
    for (Bytes& w : p.weights[0]) w = {64};
    write_seed(dir, "negative_zero_filter", p.bytes());
  }
  {
    // Window [-3, 0]: terms past 8 units clamp to 2^0, so 24 takes three.
    ConvProgram p;
    p.e_min = -3;
    p.k_max = 5;
    p.filters = 2;
    p.channels = 4;
    p.kernel = 1;
    p.weights = {{units_weight(24), units_weight(-17), units_weight(12),
                  units_weight(5)},
                 {units_weight(3), units_weight(0), units_weight(1),
                  units_weight(-2)}};
    write_seed(dir, "window3_clamped", p.bytes());
    // One exponent: every term is one unit, so u takes |u| terms.
    p.e_min = -2;
    p.e_max = -2;
    p.k_max = 8;
    p.weights = {{units_weight(8), units_weight(-7), units_weight(3),
                  units_weight(0)},
                 {units_weight(-8), units_weight(1), units_weight(0),
                  units_weight(0)}};
    write_seed(dir, "window_one_exponent", p.bytes());
    // 128 units of 2^120 is 2^127: two terms of 2^126.
    p.e_min = 120;
    p.e_max = 126;
    p.k_max = 2;
    p.weights = {{units_weight(128), units_weight(-96), units_weight(64),
                  units_weight(0)},
                 {units_weight(3), units_weight(0), units_weight(-1),
                  units_weight(0)}};
    write_seed(dir, "window_top", p.bytes());
    // A subnormal weight is 0 units of 2^120 only to a rounded quotient.
    p.weights[1][3] = subnormal_weight(false);
    write_seed(dir, "window_top_subnormal", p.bytes());
    p.weights[1][3] = units_weight(0);
    // The flush off: a subnormal weight peels into terms of 2^e_min that
    // never reach it.
    p.e_min = -126;
    p.e_max = -120;
    p.flush = false;
    p.weights[1][1] = subnormal_weight(true);
    write_seed(dir, "flush_off_subnormal", p.bytes());
  }
  write_seed(dir, "random_1024", pseudo_random(1024, 0xC0C0A5U));
}

// One deterministic seed per check of the artifact loader's ladder -- the
// stream's (header, checksum, op kinds, counts against the bytes left,
// bytes past the last op) and the contents' (the int8 pack and its stored
// counts, the op fields, the load walk) -- plus two valid artifacts, a tiny
// VGG and a tiny ResNet (for residual-segment coverage), built by the
// repo's own compiler. Content seeds mutate the program and build it.
void emit_artifact(const fs::path& dir) {
  namespace ser = flightnn::serialize;
  using flightnn::inference::NetworkProgram;
  using flightnn::inference::ProgramOp;
  using flightnn::inference::ProgramOpKind;
  using ser::ArtifactHeader;
  using ser::OpRecord;

  const auto compile = [](int network_id, float width_scale) {
    flightnn::models::BuildOptions build;
    build.classes = 4;
    build.width_scale = width_scale;
    build.seed = 7;
    auto model = flightnn::models::build_network(
        flightnn::models::table1_network(network_id), build);
    flightnn::core::install_lightnn(*model, 2);
    return flightnn::inference::compile_program(
        *model, flightnn::tensor::Shape{1, 3, 8, 8});
  };
  const NetworkProgram vgg_program = compile(4, 0.125F);
  const Bytes vgg = ser::build_artifact(vgg_program);
  write_seed(dir, "artifact_vgg_valid", vgg);
  write_seed(dir, "artifact_resnet_valid",
             ser::build_artifact(compile(2, 0.0625F)));

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
  // The blob with its current size declared and its checksum recomputed.
  const auto refit = [&](Bytes blob) {
    const std::uint64_t size = blob.size();
    blob = patch_header(std::move(blob),
                        [&](ArtifactHeader& h) { h.file_bytes = size; });
    ser::rewrite_artifact_checksum(blob);
    return blob;
  };
  // Offset of op `index`'s record: the header, then each earlier op's
  // record and arrays.
  const auto record_offset = [&](std::size_t index) {
    std::size_t at = sizeof(ArtifactHeader);
    for (std::size_t i = 0; i < index; ++i) {
      at += ser::artifact_op_bytes(vgg_program.ops[i]);
    }
    return at;
  };
  std::size_t conv = 0;  // the first shift conv
  while (vgg_program.ops.at(conv).kind != ProgramOpKind::kShiftConv) ++conv;
  const std::size_t conv_at = record_offset(conv);
  const auto patch_conv_record = [&](auto mutate) {
    Bytes blob = vgg;
    OpRecord record;
    std::memcpy(&record, blob.data() + conv_at, sizeof(record));
    mutate(record);
    std::memcpy(blob.data() + conv_at, &record, sizeof(record));
    ser::rewrite_artifact_checksum(blob);
    return blob;
  };

  // --- the stream ---
  {
    Bytes mutated = vgg;
    mutated[0] ^= 0xFF;
    write_seed(dir, "artifact_bad_magic", mutated);
  }
  write_seed(dir, "artifact_bad_version",
             patch_header(vgg, [](ArtifactHeader& h) { h.version = 99; }));
  write_seed(dir, "artifact_v4",
             patch_header(vgg, [](ArtifactHeader& h) { h.version = 4; }));
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
    mutated = vgg;
    mutated.push_back(0xAB);
    write_seed(dir, "artifact_trailing_bytes", mutated);
    mutated = vgg;
    mutated.insert(mutated.end(), 8, 0);
    write_seed(dir, "artifact_bytes_after_last_op", refit(mutated));
    // The last op's record cut in half.
    mutated = vgg;
    mutated.resize(record_offset(vgg_program.ops.size() - 1) +
                   sizeof(OpRecord) / 2);
    write_seed(dir, "artifact_record_cut_short", refit(mutated));
  }
  write_seed(dir, "artifact_op_count_past_file",
             patch_header(vgg, [](ArtifactHeader& h) { h.op_count = ~0U; }));
  write_seed(dir, "artifact_no_ops",
             patch_header(vgg, [](ArtifactHeader& h) { h.op_count = 0; }));
  write_seed(dir, "artifact_bad_op_kind", patch_conv_record([](OpRecord& r) {
               r.kind = 0xAB;
             }));
  // The float conv and float linear kinds of v4 and earlier.
  write_seed(dir, "artifact_retired_kind_3",
             patch_conv_record([](OpRecord& r) { r.kind = 3; }));
  write_seed(dir, "artifact_retired_kind_10",
             patch_conv_record([](OpRecord& r) { r.kind = 10; }));
  write_seed(dir, "artifact_count_past_bytes",
             patch_conv_record([&](OpRecord& r) {
               r.word_count = vgg.size() / 4 + 1;
             }));
  // 4 x (2^62 + 1) wraps to 4 bytes.
  write_seed(dir, "artifact_count_overflow", patch_conv_record([](OpRecord& r) {
               r.word_count = (std::uint64_t{1} << 62) + 1;
             }));

  // --- the contents: the first shift conv, mutated, then built ---
  const auto mutated_conv = [&](auto mutate) {
    NetworkProgram program = vgg_program;
    mutate(program.ops[conv]);
    return ser::build_artifact(program);
  };
  write_seed(dir, "artifact_live_unsorted", mutated_conv([](ProgramOp& op) {
               std::swap(op.plan.live.at(0), op.plan.live.at(1));
             }));
  write_seed(dir, "artifact_negated_2", mutated_conv([](ProgramOp& op) {
               op.plan.negated.at(0) = 2;
             }));
  write_seed(dir, "artifact_words_short", mutated_conv([](ProgramOp& op) {
               op.plan.words.pop_back();
             }));
  // The first conv reads the RGB image: byte 3 of a word is a padding lane.
  write_seed(dir, "artifact_padding_lane", mutated_conv([](ProgramOp& op) {
               op.plan.words.at(0) |= std::int32_t{1} << 24;
             }));
  // Stored counts the words do not give, and weights past a k_max of 1
  // (the fixture is LightNN-2): kBadProgram at adoption.
  write_seed(dir, "artifact_entries_high", mutated_conv([](ProgramOp& op) {
               ++op.plan.entry_count;
             }));
  write_seed(dir, "artifact_term_count_low", mutated_conv([](ProgramOp& op) {
               --op.term_count;
             }));
  write_seed(dir, "artifact_k_max_1", mutated_conv([](ProgramOp& op) {
               op.plan.k_max = 1;
             }));
  // An exponent window near INT_MIN: run()'s scale exponent would overflow.
  write_seed(dir, "artifact_e_min_near_int_min",
             mutated_conv([](ProgramOp& op) {
               const int levels = op.pow2.e_max - op.pow2.e_min;
               op.pow2.e_min = std::numeric_limits<std::int32_t>::min() + 2;
               op.pow2.e_max = op.pow2.e_min + levels;
             }));
  // Kernel and padding of 2^24: a non-empty output whose plane run() would
  // refuse, which the load walk must refuse before it allocates.
  write_seed(dir, "artifact_huge_kernel_padding",
             mutated_conv([](ProgramOp& op) {
               op.kernel = std::int64_t{1} << 24;
               op.padding = std::int64_t{1} << 24;
             }));

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
  const fs::path compile_conv = root / "compile_conv";
  const fs::path artifact = root / "artifact";
  fs::create_directories(model_io);
  fs::create_directories(shift_plan);
  fs::create_directories(compile_conv);
  fs::create_directories(artifact);
  std::printf("%s:\n", model_io.string().c_str());
  emit_model_io(model_io);
  std::printf("%s:\n", shift_plan.string().c_str());
  emit_shift_plan(shift_plan);
  std::printf("%s:\n", compile_conv.string().c_str());
  emit_compile_conv(compile_conv);
  std::printf("%s:\n", artifact.string().c_str());
  emit_artifact(artifact);
  return 0;
}
