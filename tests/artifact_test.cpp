// The deployment-artifact battery (DESIGN.md §13). Four legs:
//
//   1. Golden regression: a checked-in artifact built from a fully
//      deterministic ResNet must be byte-identical to a fresh build --
//      any layout drift (field order, array order, checksum) fails loudly
//      -- and the loaded and heap-compiled networks must reproduce its
//      checked-in logits byte for byte, in every build. Regenerate both
//      with FLIGHTNN_REGEN_GOLDEN=1.
//   2. Differential: logits from the mmap-loaded and heap-compiled paths
//      must be memcmp-identical, serial and under 4 threads.
//   3. Corruption matrix: every stream violation (truncation, bad
//      magic/version/checksum/geometry, counts past the bytes left or
//      overflowing, trailing bytes, unknown and retired op kinds) and every
//      content violation (op records and int8 packs that lie about
//      themselves or that the kernels cannot run) throws the matching typed
//      ArtifactError -- never UB, never a wild allocation. The parser
//      rejects the stream's violations; from_program and the adopting
//      engines the contents', which ArtifactModel maps to kBadProgram.
//   4. Shared mapping: two processes mapping one artifact file produce
//      identical logits (fork-based, POSIX only).

#include "serialize/artifact.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
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

// Bytes of the arrays after `op`'s record. Every array a kind does not
// store is empty in its op, so one sum serves every kind.
std::size_t array_bytes(const inference::ProgramOp& op) {
  const inference::ShiftPlan& plan = op.plan;
  const std::size_t floats = static_cast<std::size_t>(op.bias.numel()) +
                             op.scale.size() + op.affine_bias.size();
  return (plan.live.size() + plan.words.size()) * sizeof(std::int32_t) +
         plan.negated.size() + floats * sizeof(float);
}

// Offset of op `index`'s record in `program`'s artifact.
std::size_t record_offset(const NetworkProgram& program, std::size_t index) {
  std::size_t at = sizeof(ArtifactHeader);
  for (std::size_t i = 0; i < index; ++i) {
    at += sizeof(OpRecord) + array_bytes(program.ops[i]);
  }
  return at;
}

// The artifact is its header, then each op's record and arrays: no table,
// no padding.
TEST(GoldenArtifact, HoldsTheHeaderRecordsAndArraysOnly) {
  const NetworkProgram program = deterministic_program();
  const std::vector<std::uint8_t> golden = read_file(golden_path());
  ASSERT_EQ(golden.size(), record_offset(program, program.ops.size()));
  const std::size_t last_at = record_offset(program, program.ops.size() - 1);
  OpRecord last;
  std::memcpy(&last, golden.data() + last_at, sizeof(last));
  EXPECT_EQ(last.kind, static_cast<std::uint32_t>(program.ops.back().kind));
  EXPECT_EQ(last.word_count, program.ops.back().plan.words.size());
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

// load drops the mapping's pages from the resident set once the network is
// built (for a file of 64 KiB and up, as VGG-7 w1.0's 82 KiB is); the mapping
// stays, so data() still reads the file's bytes and re-parsing them gives
// the program the file holds.
TEST(ArtifactDifferential, DataReparsesToTheSameProgramAfterLoad) {
  models::BuildOptions build;
  build.classes = 10;
  build.seed = 23;
  auto model = models::build_network(models::table1_network(1), build);
  core::install_lightnn(*model, 2);
  const NetworkProgram program = inference::compile_program(*model, kInputShape);
  const std::vector<std::uint8_t> blob = build_artifact(program);
  ASSERT_GE(blob.size(), std::size_t{64} << 10);
  const std::string path = unique_temp_path("artifact_reparse");
  write_file(path, blob);
  const ArtifactModel mapped = ArtifactModel::load(path);
  ASSERT_EQ(mapped.size(), blob.size());
  EXPECT_EQ(std::memcmp(mapped.data(), blob.data(), blob.size()), 0);
  EXPECT_EQ(build_artifact(parse_artifact(mapped.data(), mapped.size())), blob);
  const QuantizedNetwork compiled = QuantizedNetwork::from_program(
      inference::compile_program(*model, kInputShape));
  EXPECT_EQ(logits_bytes(mapped.network(), 2), logits_bytes(compiled, 2));
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
  }
  EXPECT_GT(shift_ops, 10) << "ResNet-18 should lower many shift layers";
  EXPECT_EQ(linear_ops, 1) << "the classifier is a shift linear op";
}

// The parser reads every field by memcpy, so a blob at an odd address parses
// to the program the aligned blob holds.
TEST(ArtifactParse, AnAlignmentOfOneParsesAlike) {
  const std::vector<std::uint8_t> blob =
      build_artifact(deterministic_program());
  std::vector<std::uint8_t> buffer(blob.size() + 1);
  std::memcpy(buffer.data() + 1, blob.data(), blob.size());
  EXPECT_EQ(build_artifact(parse_artifact(buffer.data() + 1, blob.size())),
            build_artifact(parse_artifact(blob.data(), blob.size())));
}

// A filter of 576 weights with one nonzero among them pays 144 words for one
// entry; the artifact stores it as it is and loads it, and the loaded
// network runs it bit for bit as the term walk does.
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
//
// Stream cases mutate the built bytes. Content cases mutate the program and
// build it, which writes the bytes a hostile file would hold.

ArtifactHeader read_header(const std::vector<std::uint8_t>& blob) {
  ArtifactHeader header;
  std::memcpy(&header, blob.data(), sizeof(header));
  return header;
}

void write_header(std::vector<std::uint8_t>& blob, const ArtifactHeader& header) {
  std::memcpy(blob.data(), &header, sizeof(header));
}

// Declare the blob's current size in its header (after a resize).
void refit(std::vector<std::uint8_t>& blob) {
  ArtifactHeader header = read_header(blob);
  header.file_bytes = blob.size();
  write_header(blob, header);
}

// Index of the first op of `kind`; fails the test if there is none.
std::size_t first_op(const NetworkProgram& program, ProgramOpKind kind) {
  for (std::size_t i = 0; i < program.ops.size(); ++i) {
    if (program.ops[i].kind == kind) return i;
  }
  ADD_FAILURE() << "no op of kind " << static_cast<int>(kind);
  return 0;
}

// Apply `mutate` to the record of the program's first op of `kind`.
template <typename Mutate>
void patch_first_record(std::vector<std::uint8_t>& blob,
                        const NetworkProgram& program, ProgramOpKind kind,
                        Mutate mutate) {
  std::uint8_t* at = blob.data() + record_offset(program,
                                                 first_op(program, kind));
  OpRecord record;
  std::memcpy(&record, at, sizeof(record));
  mutate(record);
  std::memcpy(at, &record, sizeof(record));
}

struct StreamCase {
  const char* name;
  ArtifactErrorCode expected;
  bool reseal;  // recompute the checksum so the checks behind it are reached
  void (*mutate)(std::vector<std::uint8_t>& blob,
                 const NetworkProgram& program);
};

const StreamCase kStreamMatrix[] = {
    {"empty file", ArtifactErrorCode::kTruncated, false,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram&) {
       blob.clear();
     }},
    {"truncated header", ArtifactErrorCode::kTruncated, false,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram&) {
       blob.resize(sizeof(ArtifactHeader) - 1);
     }},
    {"file shorter than file_bytes", ArtifactErrorCode::kTruncated, false,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram&) {
       blob.resize(blob.size() - 32);
     }},
    {"op count past the file", ArtifactErrorCode::kTruncated, false,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram&) {
       // The count lives in the header, outside the checksum; no reseal.
       ArtifactHeader header = read_header(blob);
       header.op_count = 0x10000000U;
       write_header(blob, header);
     }},
    {"record cut short", ArtifactErrorCode::kTruncated, true,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram& program) {
       blob.resize(record_offset(program, program.ops.size() - 1) +
                   sizeof(OpRecord) / 2);
       refit(blob);
     }},
    {"array count past the bytes left", ArtifactErrorCode::kTruncated, true,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram& program) {
       const std::uint64_t words = blob.size() / sizeof(std::int32_t) + 1;
       patch_first_record(blob, program, ProgramOpKind::kShiftConv,
                          [&](OpRecord& record) { record.word_count = words; });
     }},
    // 4 x (2^62 + 1) wraps to 4 bytes.
    {"count whose byte size overflows", ArtifactErrorCode::kTruncated, true,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram& program) {
       patch_first_record(blob, program, ProgramOpKind::kShiftConv,
                          [](OpRecord& record) {
                            record.word_count = (std::uint64_t{1} << 62) + 1;
                          });
     }},
    {"trailing bytes past file_bytes", ArtifactErrorCode::kBadHeader, false,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram&) {
       blob.push_back(0xAB);
     }},
    {"bytes after the last op", ArtifactErrorCode::kBadHeader, true,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram&) {
       blob.insert(blob.end(), 4, 0);
       refit(blob);
     }},
    {"zero op count", ArtifactErrorCode::kBadProgram, false,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram&) {
       ArtifactHeader header = read_header(blob);
       header.op_count = 0;
       write_header(blob, header);
     }},
    {"unknown op kind", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram&) {
       const std::uint32_t kind = 99;
       std::memcpy(blob.data() + sizeof(ArtifactHeader) +
                       offsetof(OpRecord, kind),
                   &kind, sizeof(kind));
     }},
    // The float conv and float linear kinds of v4 and earlier, on a leaky
    // op's record: it has no arrays, so only the kind check can refuse it
    // in the parser.
    {"retired op kind 3", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram& program) {
       patch_first_record(blob, program, ProgramOpKind::kLeakyRelu,
                          [](OpRecord& record) { record.kind = 3; });
     }},
    {"retired op kind 10", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram& program) {
       patch_first_record(blob, program, ProgramOpKind::kLeakyRelu,
                          [](OpRecord& record) { record.kind = 10; });
     }},
    {"flipped magic byte", ArtifactErrorCode::kBadMagic, false,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram&) {
       blob[0] ^= 0xFF;
     }},
    {"future format version", ArtifactErrorCode::kBadVersion, false,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram&) {
       ArtifactHeader header = read_header(blob);
       header.version = kArtifactVersion + 7;
       write_header(blob, header);
     }},
    {"a v4 file", ArtifactErrorCode::kBadVersion, false,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram&) {
       ArtifactHeader header = read_header(blob);
       header.version = 4;
       write_header(blob, header);
     }},
    {"single flipped payload bit", ArtifactErrorCode::kBadChecksum, false,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram&) {
       blob.back() ^= 0x01;
     }},
    {"zero input geometry", ArtifactErrorCode::kBadHeader, false,
     [](std::vector<std::uint8_t>& blob, const NetworkProgram&) {
       ArtifactHeader header = read_header(blob);
       header.input_c = 0;
       write_header(blob, header);
     }},
};

// The program's first shift conv.
inference::ProgramOp& first_shift_conv(NetworkProgram& program) {
  return program.ops[first_op(program, ProgramOpKind::kShiftConv)];
}

struct ContentCase {
  const char* name;
  void (*mutate)(NetworkProgram& program);
};

// Every case is kBadProgram: from_program or adoption refuses it.
const ContentCase kContentMatrix[] = {
    {"live list unsorted",
     [](NetworkProgram& program) {
       std::vector<std::int32_t>& live = first_shift_conv(program).plan.live;
       ASSERT_GE(live.size(), 2U);
       std::swap(live[0], live[1]);
     }},
    {"live list repeating a filter",
     [](NetworkProgram& program) {
       std::vector<std::int32_t>& live = first_shift_conv(program).plan.live;
       ASSERT_GE(live.size(), 2U);
       live[1] = live[0];
     }},
    {"live filter at out_channels",
     [](NetworkProgram& program) {
       inference::ProgramOp& op = first_shift_conv(program);
       op.plan.live.back() = static_cast<std::int32_t>(op.out_channels);
     }},
    {"negated byte 2",
     [](NetworkProgram& program) {
       first_shift_conv(program).plan.negated[0] = 2;
     }},
    {"words one short",
     [](NetworkProgram& program) {
       first_shift_conv(program).plan.words.pop_back();
     }},
    // The first conv reads the RGB image: byte 3 of each word is a padding
    // lane.
    {"nonzero padding lane",
     [](NetworkProgram& program) {
       inference::ProgramOp& op = first_shift_conv(program);
       ASSERT_EQ(op.in_channels, 3);
       op.plan.words[0] |= std::int32_t{1} << 24;
     }},
    {"stored entry count one high",
     [](NetworkProgram& program) {
       ++first_shift_conv(program).plan.entry_count;
     }},
    {"stored entry count one low",
     [](NetworkProgram& program) {
       --first_shift_conv(program).plan.entry_count;
     }},
    {"stored term count one high",
     [](NetworkProgram& program) { ++first_shift_conv(program).term_count; }},
    // The LightNN-2 fixture holds two-term weights.
    {"weights past a k_max of 1",
     [](NetworkProgram& program) { first_shift_conv(program).plan.k_max = 1; }},
    // Adoption checks the word count before it sizes anything from the
    // geometry: a 2^24 x 2^24 kernel over the stored words must be refused
    // there without allocating or overflowing.
    {"conv kernel of 2^24 over the stored words",
     [](NetworkProgram& program) {
       first_shift_conv(program).kernel = std::int64_t{1} << 24;
     }},
    {"conv kernel and padding of 2^24",
     [](NetworkProgram& program) {
       inference::ProgramOp& op = first_shift_conv(program);
       op.kernel = std::int64_t{1} << 24;
       op.padding = std::int64_t{1} << 24;
     }},
    {"residual segment overrunning the op stream",
     [](NetworkProgram& program) {
       program.ops[first_op(program, ProgramOpKind::kResidual)].main_ops =
           static_cast<std::int64_t>(program.ops.size()) + 100;
     }},
};

// Load `blob` and check it is refused with `expected`.
void expect_refused(const std::vector<std::uint8_t>& blob,
                    ArtifactErrorCode expected, const char* name) {
  try {
    (void)ArtifactModel::load_buffer(blob.data(), blob.size());
    ADD_FAILURE() << name << ": loader accepted corrupt artifact";
  } catch (const ArtifactError& error) {
    EXPECT_EQ(error.code(), expected)
        << name << " threw \"" << error.what() << "\"";
  } catch (const std::exception& error) {
    ADD_FAILURE() << name << ": untyped exception " << error.what();
  }
}

TEST(ArtifactCorruption, EveryStreamViolationYieldsItsTypedError) {
  const NetworkProgram program = deterministic_program();
  const std::vector<std::uint8_t> pristine = build_artifact(program);
  // The pristine blob must load -- otherwise the matrix proves nothing.
  ASSERT_NO_THROW(ArtifactModel::load_buffer(pristine.data(), pristine.size()));
  for (const StreamCase& test_case : kStreamMatrix) {
    std::vector<std::uint8_t> blob = pristine;
    test_case.mutate(blob, program);
    if (test_case.reseal) rewrite_artifact_checksum(blob);
    expect_refused(blob, test_case.expected, test_case.name);
    // The parser refuses it, before from_program sees any op.
    try {
      (void)parse_artifact(blob.data(), blob.size());
      ADD_FAILURE() << test_case.name << ": the parser accepted it";
    } catch (const ArtifactError& error) {
      EXPECT_EQ(error.code(), test_case.expected)
          << test_case.name << " threw \"" << error.what() << "\"";
    }
  }
}

TEST(ArtifactCorruption, EveryContentViolationIsABadProgram) {
  for (const ContentCase& test_case : kContentMatrix) {
    NetworkProgram program = deterministic_program();
    test_case.mutate(program);
    expect_refused(build_artifact(program), ArtifactErrorCode::kBadProgram,
                   test_case.name);
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
  // 131,072 weights of -128 units at window [-7, 0]: 128 x their sum |w|
  // passes INT32_MAX.
  refusals.push_back({"a filter past the int32 bound",
                      one_conv_program(std::vector<float>(131072, -128.0F), 1,
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
      one_conv_program(std::vector<float>(131071, -128.0F), 1, {-7, 0, true})));
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
