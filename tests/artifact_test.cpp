// The deployment-artifact battery (DESIGN.md §13). Four legs:
//
//   1. Golden regression: a checked-in artifact built from a fully
//      deterministic ResNet must be byte-identical to a fresh build --
//      any layout drift (field order, alignment, section order, checksum)
//      fails loudly -- and the loaded and heap-compiled networks must
//      reproduce its checked-in logits byte for byte, in every build.
//      Regenerate both with FLIGHTNN_REGEN_GOLDEN=1.
//   2. Differential: logits from the mmap-loaded and heap-compiled paths
//      must be memcmp-identical, serial and under 4 threads.
//   3. Corruption matrix: every structural violation (truncation, bad
//      magic/version/checksum, misaligned or escaping or retired sections,
//      invalid op records, int8 packs that lie about themselves or that the
//      kernels cannot run) throws the matching typed ArtifactError -- never
//      UB, never a wild allocation. The parser rejects the container's
//      violations; from_program and the adopting engines the contents',
//      which ArtifactModel maps to kBadProgram.
//   4. Shared mapping: two processes mapping one artifact file produce
//      identical logits (fork-based, POSIX only).

#include "serialize/artifact.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/quantize_model.hpp"
#include "inference/network_program.hpp"
#include "inference/quantized_network.hpp"
#include "models/networks.hpp"
#include "runtime/thread_pool.hpp"
#include "support/check.hpp"
#include "term_walk_oracle.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define FLIGHTNN_TEST_HAS_FORK 1
#else
#define FLIGHTNN_TEST_HAS_FORK 0
#endif

#ifndef FLIGHTNN_GOLDEN_DIR
#define FLIGHTNN_GOLDEN_DIR "tests/golden"
#endif

namespace flightnn::serialize {
namespace {

using inference::NetworkProgram;
using inference::ProgramOpKind;
using inference::QuantizedNetwork;
using tensor::Shape;
using tensor::Tensor;

// --- Deterministic fixture ------------------------------------------------
//
// The golden test needs byte-reproducibility across compilers and libms, so
// every parameter is overwritten with exact-grid values (n/64, |n| <= 64)
// from a fixed xorshift32 stream: quantization, plan lowering and batch-norm
// folding then involve only correctly-rounded float ops (+-*/ and sqrt).

std::uint32_t xorshift32(std::uint32_t& state) {
  state ^= state << 13;
  state ^= state >> 17;
  state ^= state << 5;
  return state;
}

void fill_grid(Tensor& tensor, std::uint32_t& state) {
  float* data = tensor.data();
  for (std::int64_t i = 0; i < tensor.numel(); ++i) {
    const auto raw = static_cast<int>(xorshift32(state) % 129U) - 64;
    data[i] = static_cast<float>(raw) / 64.0F;
  }
}

std::unique_ptr<nn::Sequential> deterministic_model() {
  models::BuildOptions build;
  build.classes = 10;
  build.in_channels = 3;
  build.width_scale = 0.125F;
  build.seed = 17;
  // ResNet (Table 1 id 2): residual blocks exercise the segment encoding.
  auto model = models::build_network(models::table1_network(2), build);
  std::uint32_t state = 0x9E3779B9U;
  for (nn::Parameter* parameter : model->parameters()) {
    fill_grid(parameter->value, state);
  }
  core::install_lightnn(*model, 2);
  return model;
}

const Shape kInputShape{1, 3, 16, 16};

Tensor deterministic_image(std::uint32_t salt) {
  Tensor image(Shape{3, 16, 16});
  std::uint32_t state = 0xB5297A4DU + salt;
  fill_grid(image, state);
  return image;
}

NetworkProgram deterministic_program() {
  auto model = deterministic_model();
  return inference::compile_program(*model, kInputShape);
}

std::string golden_path() {
  return std::string(FLIGHTNN_GOLDEN_DIR) + "/table1_resnet18_w8.flnart";
}

// The golden network's logits on deterministic_image(0..kGoldenImages-1),
// as raw float bytes.
std::string golden_logits_path() {
  return std::string(FLIGHTNN_GOLDEN_DIR) + "/table1_resnet18_w8.logits";
}
constexpr int kGoldenImages = 4;

std::string unique_temp_path(const char* stem) {
  static int counter = 0;
  return ::testing::TempDir() + "/" + stem + "_" +
         std::to_string(static_cast<long>(::getpid())) + "_" +
         std::to_string(counter++) + ".flnart";
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return {};
  const auto size = static_cast<std::size_t>(file.tellg());
  std::vector<std::uint8_t> bytes(size);
  file.seekg(0);
  file.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(size));
  return bytes;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(file.is_open()) << path;
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

// Logits as raw bytes so comparisons are memcmp, not EXPECT_NEAR.
std::vector<std::uint8_t> logits_bytes(const QuantizedNetwork& network,
                                       int images) {
  std::vector<std::uint8_t> bytes;
  for (int n = 0; n < images; ++n) {
    const Tensor logits = network.run(deterministic_image(
        static_cast<std::uint32_t>(n)));
    const auto* p = reinterpret_cast<const std::uint8_t*>(logits.data());
    bytes.insert(bytes.end(),
                 p, p + static_cast<std::size_t>(logits.numel()) * sizeof(float));
  }
  return bytes;
}

// --- Golden regression ----------------------------------------------------

TEST(GoldenArtifact, BuildIsByteIdenticalToCheckedInBlob) {
  const std::vector<std::uint8_t> blob = build_artifact(deterministic_program());
  if (std::getenv("FLIGHTNN_REGEN_GOLDEN") != nullptr) {
    write_file(golden_path(), blob);
    write_file(golden_logits_path(),
               logits_bytes(QuantizedNetwork::from_program(
                                deterministic_program()),
                            kGoldenImages));
    GTEST_SKIP() << "regenerated " << golden_path() << " (" << blob.size()
                 << " bytes) and " << golden_logits_path();
  }
  const std::vector<std::uint8_t> golden = read_file(golden_path());
  ASSERT_FALSE(golden.empty())
      << "missing golden blob " << golden_path()
      << "; regenerate with FLIGHTNN_REGEN_GOLDEN=1";
  ASSERT_EQ(blob.size(), golden.size()) << "artifact layout drifted";
  EXPECT_EQ(std::memcmp(blob.data(), golden.data(), blob.size()), 0)
      << "artifact bytes drifted from the golden blob; if the format "
         "changed intentionally, bump kArtifactVersion and regenerate";
}

TEST(GoldenArtifact, BuildIsDeterministicAcrossRuns) {
  const NetworkProgram program = deterministic_program();
  EXPECT_EQ(build_artifact(program), build_artifact(program));
}

// Both load paths must reproduce the checked-in logits bytes: a kernel,
// glue or compiler-flag change that moves one bit of one logit (an FMA
// contraction in a native build, say) fails here.
TEST(GoldenArtifact, CheckedInBlobLoadsAndMatchesHeapLogits) {
  const std::vector<std::uint8_t> golden = read_file(golden_path());
  const std::vector<std::uint8_t> logits = read_file(golden_logits_path());
  ASSERT_FALSE(golden.empty() || logits.empty())
      << "missing golden blob or logits under " << FLIGHTNN_GOLDEN_DIR
      << "; regenerate with FLIGHTNN_REGEN_GOLDEN=1";
  const ArtifactModel model = ArtifactModel::load_buffer(golden.data(),
                                                         golden.size());
  EXPECT_EQ(model.input_c(), 3);
  EXPECT_EQ(model.input_h(), 16);
  EXPECT_EQ(model.input_w(), 16);
  const QuantizedNetwork heap =
      QuantizedNetwork::from_program(deterministic_program());
  EXPECT_EQ(logits_bytes(model.network(), kGoldenImages), logits);
  EXPECT_EQ(logits_bytes(heap, kGoldenImages), logits);
}

// --- Differential: mmap vs heap, serial and threaded ----------------------

TEST(ArtifactDifferential, MmapAndHeapLogitsAreMemcmpIdentical) {
  const NetworkProgram program = deterministic_program();
  const std::vector<std::uint8_t> blob = build_artifact(program);
  const std::string path = unique_temp_path("artifact_diff");
  write_file(path, blob);

  const ArtifactModel mapped = ArtifactModel::load(path);
  const ArtifactModel heap_copy = ArtifactModel::load_buffer(blob.data(),
                                                             blob.size());
  const QuantizedNetwork compiled =
      QuantizedNetwork::from_program(deterministic_program());

  for (const int threads : {1, 4}) {
    runtime::set_num_threads(threads);
    const auto reference = logits_bytes(compiled, 4);
    EXPECT_EQ(logits_bytes(mapped.network(), 4), reference)
        << "mmap path diverged at " << threads << " threads";
    EXPECT_EQ(logits_bytes(heap_copy.network(), 4), reference)
        << "heap-buffer path diverged at " << threads << " threads";
  }
  runtime::set_num_threads(1);
  std::remove(path.c_str());
}

// --- Parse: the int8 packs are copied out whole -----------------------------

// The parsed plans are the compiled ones, byte for byte, and live in the
// program's own memory: nothing of a loaded network reads the blob.
TEST(ArtifactParse, PacksAreCopiedOutIntact) {
  const NetworkProgram program = deterministic_program();
  const std::vector<std::uint8_t> blob = build_artifact(program);
  const NetworkProgram parsed = parse_artifact(blob.data(), blob.size());
  const auto* begin = blob.data();
  const auto* end = blob.data() + blob.size();
  const auto in_blob = [&](const void* p) {
    return p >= static_cast<const void*>(begin) &&
           p < static_cast<const void*>(end);
  };
  ASSERT_EQ(parsed.ops.size(), program.ops.size());
  int shift_ops = 0;
  int linear_ops = 0;
  for (std::size_t i = 0; i < parsed.ops.size(); ++i) {
    const inference::ProgramOp& op = parsed.ops[i];
    if (op.kind != ProgramOpKind::kShiftConv &&
        op.kind != ProgramOpKind::kShiftLinear) {
      continue;
    }
    ++shift_ops;
    linear_ops += op.kind == ProgramOpKind::kShiftLinear ? 1 : 0;
    const inference::ShiftPlan& want = program.ops[i].plan;
    ASSERT_GT(op.plan.entries(), 0);
    EXPECT_EQ(op.plan.entries(), want.entries());
    EXPECT_EQ(op.plan.k_max, want.k_max);
    EXPECT_EQ(op.plan.live, want.live);
    EXPECT_EQ(op.plan.words, want.words);
    EXPECT_EQ(op.plan.negated, want.negated);
    EXPECT_FALSE(in_blob(op.plan.words.data()));
    EXPECT_FALSE(in_blob(op.plan.live.data()));
    // The artifact path carries packs, never the float weights.
    EXPECT_TRUE(op.weights.empty());
  }
  EXPECT_GT(shift_ops, 10) << "ResNet-18 should lower many shift layers";
  EXPECT_EQ(linear_ops, 1) << "the classifier is a shift linear op";
}

// A filter of 576 weights with one nonzero among them pays 144 words for one
// entry; v3 stores it as it is and loads it, and the loaded network runs it
// bit for bit as the term walk does.
TEST(ArtifactParse, SparseLiveFiltersRoundTrip) {
  const quant::Pow2Config pow2;
  const float unit = std::ldexp(1.0F, pow2.e_min);
  Tensor wq = Tensor::zeros(Shape{8, 64, 3, 3});
  const int units[] = {5, -6, 12, -48, 80, 2, -96, 33};
  for (std::int64_t f = 0; f < 8; ++f) {
    wq[f * 576 + (f * 131) % 576] =
        static_cast<float>(units[static_cast<std::size_t>(f)]) * unit;
  }
  inference::ProgramOp op;
  op.kind = ProgramOpKind::kShiftConv;
  op.out_channels = 8;
  op.in_channels = 64;
  op.kernel = 3;
  op.padding = 1;
  inference::CompiledPlan compiled =
      inference::ShiftPlan::compile_conv(wq, 2, pow2);
  op.term_count = compiled.term_count;
  op.plan = std::move(compiled.plan);
  NetworkProgram program;
  program.ops.push_back(std::move(op));
  program.input_c = 64;
  program.input_h = 6;
  program.input_w = 6;
  const std::vector<std::uint8_t> blob = build_artifact(program);
  const ArtifactModel model = ArtifactModel::load_buffer(blob.data(),
                                                         blob.size());
  std::uint32_t state = 0x51A75EU;
  Tensor image(Shape{64, 6, 6});
  fill_grid(image, state);
  const Tensor got = model.network().run(image);
  const Tensor want = inference::oracle::TermWalkConv2d(wq, 2, pow2, 1, 1)
                          .run(inference::quantize_image(image, 8));
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0);
}

// --- Corruption matrix ----------------------------------------------------

struct CorruptionCase {
  const char* name;
  ArtifactErrorCode expected;
  bool reseal;  // recompute the checksum so deeper validators are reached
  void (*mutate)(std::vector<std::uint8_t>& blob);
};

ArtifactHeader read_header(const std::vector<std::uint8_t>& blob) {
  ArtifactHeader header;
  std::memcpy(&header, blob.data(), sizeof(header));
  return header;
}

void write_header(std::vector<std::uint8_t>& blob, const ArtifactHeader& header) {
  std::memcpy(blob.data(), &header, sizeof(header));
}

std::vector<SectionDesc> read_sections(const std::vector<std::uint8_t>& blob) {
  const ArtifactHeader header = read_header(blob);
  std::vector<SectionDesc> sections(header.section_count);
  std::memcpy(sections.data(), blob.data() + sizeof(ArtifactHeader),
              sections.size() * sizeof(SectionDesc));
  return sections;
}

void write_section(std::vector<std::uint8_t>& blob, std::size_t index,
                   const SectionDesc& desc) {
  std::memcpy(blob.data() + sizeof(ArtifactHeader) + index * sizeof(SectionDesc),
              &desc, sizeof(desc));
}

OpRecord read_op(const std::vector<std::uint8_t>& blob, std::uint32_t index) {
  const auto sections = read_sections(blob);
  OpRecord record;
  std::memcpy(&record, blob.data() + sections[0].offset + index * sizeof(record),
              sizeof(record));
  return record;
}

// The first section of `kind` owned by an op of `op_kind`; aborts the test
// if absent.
SectionDesc find_op_section(const std::vector<std::uint8_t>& blob,
                            SectionKind kind, ProgramOpKind op_kind) {
  for (const SectionDesc& desc : read_sections(blob)) {
    if (desc.kind == static_cast<std::uint32_t>(kind) &&
        read_op(blob, desc.op_index).kind ==
            static_cast<std::uint32_t>(op_kind)) {
      return desc;
    }
  }
  ADD_FAILURE() << "no section of kind " << static_cast<int>(kind)
                << " on an op of kind " << static_cast<int>(op_kind);
  return {};
}

void set_section_1_kind(std::vector<std::uint8_t>& blob, std::uint32_t kind) {
  auto sections = read_sections(blob);
  sections[1].kind = kind;
  write_section(blob, 1, sections[1]);
}

// First section of `kind`; aborts the test if absent.
SectionDesc find_section(const std::vector<std::uint8_t>& blob,
                         SectionKind kind, std::size_t* index = nullptr) {
  const auto sections = read_sections(blob);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].kind == static_cast<std::uint32_t>(kind)) {
      if (index != nullptr) *index = i;
      return sections[i];
    }
  }
  ADD_FAILURE() << "no section of kind " << static_cast<int>(kind);
  return {};
}

// Apply `mutate` to the record of the first shift conv op.
template <typename Mutate>
void patch_first_shift_conv(std::vector<std::uint8_t>& blob, Mutate mutate) {
  const SectionDesc program = find_section(blob, SectionKind::kProgram);
  const ArtifactHeader header = read_header(blob);
  for (std::uint32_t i = 0; i < header.op_count; ++i) {
    OpRecord record;
    std::uint8_t* at = blob.data() + program.offset + i * sizeof(record);
    std::memcpy(&record, at, sizeof(record));
    if (record.kind == static_cast<std::uint32_t>(ProgramOpKind::kShiftConv)) {
      mutate(record);
      std::memcpy(at, &record, sizeof(record));
      return;
    }
  }
  ADD_FAILURE() << "no shift conv op in the fixture network";
}

// The live list of the first shift conv with two or more live filters.
std::int32_t* first_conv_live(std::vector<std::uint8_t>& blob) {
  for (const SectionDesc& desc : read_sections(blob)) {
    if (desc.kind == static_cast<std::uint32_t>(SectionKind::kPackLive) &&
        read_op(blob, desc.op_index).kind ==
            static_cast<std::uint32_t>(ProgramOpKind::kShiftConv) &&
        desc.bytes >= 2 * sizeof(std::int32_t)) {
      return reinterpret_cast<std::int32_t*>(blob.data() + desc.offset);
    }
  }
  ADD_FAILURE() << "no shift conv with two live filters";
  static std::int32_t none[2] = {0, 1};
  return none;
}

const CorruptionCase kCorruptionMatrix[] = {
    {"empty file", ArtifactErrorCode::kTruncated, false,
     [](std::vector<std::uint8_t>& blob) { blob.clear(); }},
    {"file shorter than the header", ArtifactErrorCode::kTruncated, false,
     [](std::vector<std::uint8_t>& blob) { blob.resize(64); }},
    {"payload truncated mid-section", ArtifactErrorCode::kTruncated, false,
     [](std::vector<std::uint8_t>& blob) { blob.resize(blob.size() - 32); }},
    {"flipped magic byte", ArtifactErrorCode::kBadMagic, false,
     [](std::vector<std::uint8_t>& blob) { blob[0] ^= 0xFF; }},
    {"future format version", ArtifactErrorCode::kBadVersion, false,
     [](std::vector<std::uint8_t>& blob) {
       auto header = read_header(blob);
       header.version = kArtifactVersion + 7;
       write_header(blob, header);
     }},
    {"inconsistent header geometry", ArtifactErrorCode::kBadHeader, false,
     [](std::vector<std::uint8_t>& blob) {
       auto header = read_header(blob);
       header.section_table_offset = 64;
       write_header(blob, header);
     }},
    {"trailing garbage past file_bytes", ArtifactErrorCode::kBadHeader, false,
     [](std::vector<std::uint8_t>& blob) { blob.push_back(0xAB); }},
    {"zero input geometry", ArtifactErrorCode::kBadHeader, false,
     [](std::vector<std::uint8_t>& blob) {
       auto header = read_header(blob);
       header.input_c = 0;
       write_header(blob, header);
     }},
    {"single flipped payload bit", ArtifactErrorCode::kBadChecksum, false,
     [](std::vector<std::uint8_t>& blob) { blob.back() ^= 0x01; }},
    {"section count beyond the file", ArtifactErrorCode::kBadSection, false,
     [](std::vector<std::uint8_t>& blob) {
       auto header = read_header(blob);
       header.section_count = 0x10000000U;
       write_header(blob, header);
       // The count lives in the header, outside the checksum; no reseal.
     }},
    {"misaligned section offset", ArtifactErrorCode::kBadSection, true,
     [](std::vector<std::uint8_t>& blob) {
       auto sections = read_sections(blob);
       sections[1].offset += 8;
       write_section(blob, 1, sections[1]);
     }},
    {"section escaping the file", ArtifactErrorCode::kBadSection, true,
     [](std::vector<std::uint8_t>& blob) {
       auto sections = read_sections(blob);
       sections[1].bytes = ~std::uint64_t{0} - sections[1].offset + 1;
       write_section(blob, 1, sections[1]);
     }},
    {"unknown section kind", ArtifactErrorCode::kBadSection, true,
     [](std::vector<std::uint8_t>& blob) { set_section_1_kind(blob, 0xDEAD); }},
    {"program section replaced", ArtifactErrorCode::kBadSection, true,
     [](std::vector<std::uint8_t>& blob) {
       auto sections = read_sections(blob);
       sections[0].kind = static_cast<std::uint32_t>(SectionKind::kBias);
       write_section(blob, 0, sections[0]);
     }},
    {"op count disagreeing with the program section",
     ArtifactErrorCode::kBadProgram, false,
     [](std::vector<std::uint8_t>& blob) {
       auto header = read_header(blob);
       header.op_count += 1;
       write_header(blob, header);
     }},
    {"unknown op kind", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       const SectionDesc program = find_section(blob, SectionKind::kProgram);
       OpRecord record;
       std::memcpy(&record, blob.data() + program.offset, sizeof(record));
       record.kind = 99;
       std::memcpy(blob.data() + program.offset, &record, sizeof(record));
     }},
    {"residual segment overrunning the op stream",
     ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       const SectionDesc program = find_section(blob, SectionKind::kProgram);
       const ArtifactHeader header = read_header(blob);
       for (std::uint32_t i = 0; i < header.op_count; ++i) {
         OpRecord record;
         std::memcpy(&record, blob.data() + program.offset + i * sizeof(record),
                     sizeof(record));
         if (record.kind ==
             static_cast<std::uint32_t>(ProgramOpKind::kResidual)) {
           record.main_ops = header.op_count + 100;
           std::memcpy(blob.data() + program.offset + i * sizeof(record),
                       &record, sizeof(record));
           return;
         }
       }
       ADD_FAILURE() << "no residual op in the fixture network";
     }},
    {"a v2 file", ArtifactErrorCode::kBadVersion, false,
     [](std::vector<std::uint8_t>& blob) {
       auto header = read_header(blob);
       header.version = 2;
       write_header(blob, header);
     }},
    {"section of the retired element kind", ArtifactErrorCode::kBadSection,
     true,
     [](std::vector<std::uint8_t>& blob) { set_section_1_kind(blob, 2); }},
    {"section of v2's channel stream kind", ArtifactErrorCode::kBadSection,
     true,
     [](std::vector<std::uint8_t>& blob) { set_section_1_kind(blob, 3); }},
    {"section of v2's sign stream kind", ArtifactErrorCode::kBadSection, true,
     [](std::vector<std::uint8_t>& blob) { set_section_1_kind(blob, 7); }},
    {"section of v2's filter prefix kind", ArtifactErrorCode::kBadSection,
     true,
     [](std::vector<std::uint8_t>& blob) { set_section_1_kind(blob, 8); }},
    {"section of the retired gain kind", ArtifactErrorCode::kBadSection, true,
     [](std::vector<std::uint8_t>& blob) { set_section_1_kind(blob, 9); }},
    {"live list unsorted", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       std::int32_t* live = first_conv_live(blob);
       std::swap(live[0], live[1]);
     }},
    {"live list repeating a filter", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       std::int32_t* live = first_conv_live(blob);
       live[1] = live[0];
     }},
    {"live filter at out_channels", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       const SectionDesc live = find_op_section(blob, SectionKind::kPackLive,
                                                ProgramOpKind::kShiftConv);
       const auto hostile = static_cast<std::int32_t>(
           read_op(blob, live.op_index).out_channels);
       std::memcpy(blob.data() + live.offset + live.bytes - sizeof(hostile),
                   &hostile, sizeof(hostile));
     }},
    {"negated byte 2", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       blob[find_section(blob, SectionKind::kPackNegated).offset] = 2;
     }},
    {"words section one word short", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       std::size_t index = 0;
       SectionDesc words = find_section(blob, SectionKind::kPackWords, &index);
       words.bytes -= sizeof(std::int32_t);
       write_section(blob, index, words);
     }},
    // The first conv reads the RGB image: byte 3 of each word is a padding
    // lane.
    {"nonzero padding lane", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       const SectionDesc words = find_op_section(
           blob, SectionKind::kPackWords, ProgramOpKind::kShiftConv);
       EXPECT_EQ(read_op(blob, words.op_index).in_channels, 3);
       blob[words.offset + 3] = 1;
     }},
    {"stored entry count one high", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       patch_first_shift_conv(blob, [](OpRecord& record) { ++record.entries; });
     }},
    {"stored entry count one low", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       patch_first_shift_conv(blob, [](OpRecord& record) { --record.entries; });
     }},
    {"stored term count one high", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       patch_first_shift_conv(blob,
                              [](OpRecord& record) { ++record.term_count; });
     }},
    // The LightNN-2 fixture holds two-term weights.
    {"weights past a k_max of 1", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       patch_first_shift_conv(blob, [](OpRecord& record) { record.k_max = 1; });
     }},
    // Adoption checks the word count before it sizes anything from the
    // geometry: a 2^24 x 2^24 kernel over the stored words must be refused
    // there without allocating or overflowing.
    {"conv kernel of 2^24 over the stored words",
     ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       patch_first_shift_conv(blob, [](OpRecord& record) {
         record.kernel = std::int64_t{1} << 24;
       });
     }},
    {"conv kernel and padding of 2^24", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       patch_first_shift_conv(blob, [](OpRecord& record) {
         record.kernel = std::int64_t{1} << 24;
         record.padding = std::int64_t{1} << 24;
       });
     }},
};

TEST(ArtifactCorruption, EveryCorruptionClassYieldsItsTypedError) {
  const std::vector<std::uint8_t> pristine =
      build_artifact(deterministic_program());
  // The pristine blob must load -- otherwise the matrix proves nothing.
  ASSERT_NO_THROW(ArtifactModel::load_buffer(pristine.data(), pristine.size()));

  for (const CorruptionCase& test_case : kCorruptionMatrix) {
    std::vector<std::uint8_t> blob = pristine;
    test_case.mutate(blob);
    if (test_case.reseal) rewrite_artifact_checksum(blob);
    try {
      (void)ArtifactModel::load_buffer(blob.data(), blob.size());
      ADD_FAILURE() << test_case.name << ": loader accepted corrupt artifact";
    } catch (const ArtifactError& error) {
      EXPECT_EQ(error.code(), test_case.expected)
          << test_case.name << " threw \"" << error.what() << "\"";
    } catch (const std::exception& error) {
      ADD_FAILURE() << test_case.name << ": untyped exception " << error.what();
    }
  }
}

// --- Plans the int8 pack cannot run ----------------------------------------
//
// One shift conv with one filter over an [in_channels, 1, 1] input, lowered
// from `units` (its weights in units of 2^e_min) at k_max.
NetworkProgram one_conv_program(const std::vector<float>& units, int k_max,
                                const quant::Pow2Config& pow2 = {}) {
  const auto in_channels = static_cast<std::int64_t>(units.size());
  Tensor wq(Shape{1, in_channels, 1, 1});
  for (std::int64_t c = 0; c < in_channels; ++c) {
    wq[c] = std::ldexp(units[static_cast<std::size_t>(c)], pow2.e_min);
  }
  inference::ProgramOp op;
  op.kind = ProgramOpKind::kShiftConv;
  op.out_channels = 1;
  op.in_channels = in_channels;
  op.kernel = 1;
  op.pow2 = pow2;
  inference::CompiledPlan compiled =
      inference::ShiftPlan::compile_conv(wq, k_max, pow2);
  op.term_count = compiled.term_count;
  op.plan = std::move(compiled.plan);
  NetworkProgram program;
  program.ops.push_back(std::move(op));
  program.input_c = in_channels;
  program.input_h = 1;
  program.input_w = 1;
  return program;
}

// A plan the dense kernels cannot run is a typed refusal at load on both
// paths: CheckFailure from from_program, kBadProgram from the artifact
// loader. Nothing of it reaches run().
TEST(ArtifactCorruption, PlansThePackCannotRunAreRefusedAtLoad) {
  struct Refusal {
    const char* name;
    NetworkProgram program;
  };
  std::vector<Refusal> refusals;
  // 132,105 weights of -128 units at window [-7, 0]: 127 x their sum |w|
  // passes INT32_MAX.
  refusals.push_back({"a filter past the int32 bound",
                      one_conv_program(std::vector<float>(132105, -128.0F), 1,
                                       {-7, 0, true})});
  NetworkProgram wide_codes = one_conv_program({8.0F}, 2);
  wide_codes.ops[0].act_bits = 9;
  refusals.push_back({"a shift op with act_bits 9", std::move(wide_codes)});
  // 11 = 8 + 4 - 1 takes three terms; the stored counts follow it.
  NetworkProgram three_terms = one_conv_program({8.0F}, 2);
  inference::ProgramOp& op = three_terms.ops[0];
  op.plan.words[0] = 11;
  op.plan.entry_count = 3;
  op.term_count = 3;
  refusals.push_back({"a weight of three terms at k_max 2",
                      std::move(three_terms)});

  // The same plans within every bound load.
  ASSERT_NO_THROW((void)QuantizedNetwork::from_program(
      one_conv_program(std::vector<float>(132104, -128.0F), 1, {-7, 0, true})));
  ASSERT_NO_THROW(
      (void)QuantizedNetwork::from_program(one_conv_program({8.0F}, 2)));
  for (const Refusal& refusal : refusals) {
    EXPECT_THROW((void)QuantizedNetwork::from_program(refusal.program),
                 support::CheckFailure)
        << refusal.name;
    const std::vector<std::uint8_t> blob = build_artifact(refusal.program);
    try {
      (void)ArtifactModel::load_buffer(blob.data(), blob.size());
      ADD_FAILURE() << refusal.name << ": loader accepted the plan";
    } catch (const ArtifactError& error) {
      EXPECT_EQ(error.code(), ArtifactErrorCode::kBadProgram)
          << refusal.name << " threw \"" << error.what() << "\"";
    }
  }
}

TEST(ArtifactCorruption, MmapLoadRejectsCorruptFileToo) {
  std::vector<std::uint8_t> blob = build_artifact(deterministic_program());
  blob[3] ^= 0x80;  // magic
  const std::string path = unique_temp_path("artifact_corrupt");
  write_file(path, blob);
  try {
    (void)ArtifactModel::load(path);
    ADD_FAILURE() << "mmap loader accepted corrupt artifact";
  } catch (const ArtifactError& error) {
    EXPECT_EQ(error.code(), ArtifactErrorCode::kBadMagic);
  }
  std::remove(path.c_str());
}

TEST(ArtifactCorruption, MissingFileIsATypedIoError) {
  try {
    (void)ArtifactModel::load(unique_temp_path("artifact_missing"));
    ADD_FAILURE() << "loader accepted a nonexistent path";
  } catch (const ArtifactError& error) {
    EXPECT_EQ(error.code(), ArtifactErrorCode::kIo);
  }
}

// --- Two processes, one mapping -------------------------------------------

#if FLIGHTNN_TEST_HAS_FORK
TEST(ArtifactSharedMapping, TwoProcessesProduceIdenticalLogits) {
  runtime::set_num_threads(1);  // keep the process single-threaded for fork
  const std::string path = unique_temp_path("artifact_shared");
  save_artifact(deterministic_program(), path);

  const ArtifactModel parent_model = ArtifactModel::load(path);
  const std::vector<std::uint8_t> parent_logits =
      logits_bytes(parent_model.network(), 2);

  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: map the same file independently and stream logits back.
    ::close(fds[0]);
    int status = 1;
    try {
      const ArtifactModel model = ArtifactModel::load(path);
      const std::vector<std::uint8_t> logits = logits_bytes(model.network(), 2);
      std::size_t written = 0;
      while (written < logits.size()) {
        const ssize_t n = ::write(fds[1], logits.data() + written,
                                  logits.size() - written);
        if (n <= 0) break;
        written += static_cast<std::size_t>(n);
      }
      status = written == logits.size() ? 0 : 1;
    } catch (...) {
      status = 2;
    }
    ::close(fds[1]);
    ::_exit(status);
  }
  ::close(fds[1]);
  std::vector<std::uint8_t> child_logits(parent_logits.size());
  std::size_t received = 0;
  while (received < child_logits.size()) {
    const ssize_t n = ::read(fds[0], child_logits.data() + received,
                             child_logits.size() - received);
    if (n <= 0) break;
    received += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = -1;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child exit status " << status;
  ASSERT_EQ(received, parent_logits.size());
  EXPECT_EQ(child_logits, parent_logits);
  std::remove(path.c_str());
}
#endif  // FLIGHTNN_TEST_HAS_FORK

}  // namespace
}  // namespace flightnn::serialize
