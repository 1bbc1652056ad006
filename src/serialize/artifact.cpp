#include "serialize/artifact.hpp"

#include <cstddef>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define FLIGHTNN_ARTIFACT_HAS_MMAP 1
#else
#define FLIGHTNN_ARTIFACT_HAS_MMAP 0
#endif

#include "serialize/wire.hpp"
#include "support/annotations.hpp"
#include "support/check.hpp"

namespace flightnn::serialize {

namespace {

using inference::NetworkProgram;
using inference::ProgramOp;
using inference::ProgramOpKind;
using inference::ShiftPlan;

[[noreturn]] void fail(ArtifactErrorCode code, const std::string& message) {
  throw ArtifactError(code, message);
}

bool shift_kind(ProgramOpKind kind) {
  return kind == ProgramOpKind::kShiftConv ||
         kind == ProgramOpKind::kShiftLinear;
}

// Whether a record's kind names an op kind of this format: 3 and 10, the
// float conv and linear kinds of v4 and earlier, are retired.
bool known_kind(std::uint32_t kind) {
  switch (static_cast<ProgramOpKind>(kind)) {
    case ProgramOpKind::kQuantAct:
    case ProgramOpKind::kShiftConv:
    case ProgramOpKind::kAffine:
    case ProgramOpKind::kLeakyRelu:
    case ProgramOpKind::kMaxPool:
    case ProgramOpKind::kGap:
    case ProgramOpKind::kFlatten:
    case ProgramOpKind::kShiftLinear:
    case ProgramOpKind::kResidual:
      return true;
  }
  return false;
}

// --- Build ----------------------------------------------------------------

// One op: its record, then its arrays in the order its kind fixes. This
// order IS the format's, and part of its determinism contract.
void write_op(ByteWriter& writer, const ProgramOp& op) {
  OpRecord record;
  record.kind = static_cast<std::uint32_t>(op.kind);
  record.bits = op.bits;
  record.act_bits = op.act_bits;
  record.slope = op.slope;
  record.out_channels = op.out_channels;
  record.in_channels = op.in_channels;
  record.kernel = op.kernel;
  record.window = op.window;
  record.stride = op.stride;
  record.padding = op.padding;
  record.term_count = op.term_count;
  record.entries = op.plan.entry_count;
  record.main_ops = op.main_ops;
  record.shortcut_ops = op.shortcut_ops;
  record.post_ops = op.post_ops;
  record.k_max = op.plan.k_max;
  record.e_min = op.pow2.e_min;
  record.e_max = op.pow2.e_max;
  record.flush_to_zero = op.pow2.flush_to_zero ? 1 : 0;
  record.has_shortcut = op.has_shortcut ? 1 : 0;

  const ShiftPlan& plan = op.plan;
  if (shift_kind(op.kind)) {
    // The int8 pack, the only stored form of shift weights.
    record.live_count = plan.live.size();
    record.word_count = plan.words.size();
    record.negated_count = plan.negated.size();
    record.bias_count = static_cast<std::uint64_t>(op.bias.numel());
  } else if (op.kind == ProgramOpKind::kAffine) {
    record.scale_count = op.scale.size();
    record.bias_count = op.affine_bias.size();
  }
  writer.bytes(&record, sizeof(record));

  if (shift_kind(op.kind)) {
    writer.bytes(plan.live.data(), plan.live.size() * sizeof(std::int32_t));
    writer.bytes(plan.words.data(), plan.words.size() * sizeof(std::int32_t));
    writer.bytes(plan.negated.data(), plan.negated.size());
    writer.floats(op.bias.data(), op.bias.numel());
  } else if (op.kind == ProgramOpKind::kAffine) {
    writer.floats(op.scale.data(), static_cast<std::int64_t>(op.scale.size()));
    writer.floats(op.affine_bias.data(),
                  static_cast<std::int64_t>(op.affine_bias.size()));
  }
}

// --- Parse ----------------------------------------------------------------
//
// The parser checks only the stream: the header, the checksum and, per op,
// its record's kind and its arrays' counts. The op fields and plans it
// hands on are checked where every program is, whoever built it:
// QuantizedNetwork::from_program (every op field) and the plan-adopting
// engine (adopt_plan).

// The stream's next `count` elements of T, checked against the bytes left
// before anything is allocated. The bound divides, so a count whose byte
// size would overflow cannot pass it.
template <typename T>
std::vector<T> read_array(ByteReader& reader, std::uint64_t count,
                          std::uint32_t op_index, const char* what) {
  if (count > reader.remaining() / sizeof(T)) {
    fail(ArtifactErrorCode::kTruncated,
         "op " + std::to_string(op_index) + " " + what + " count " +
             std::to_string(count) + " passes the " +
             std::to_string(reader.remaining()) + " bytes left");
  }
  std::vector<T> out(static_cast<std::size_t>(count));
  reader.bytes(out.data(), out.size() * sizeof(T));
  return out;
}

// A bias of `count` floats; an absent one (count 0) stays empty.
tensor::Tensor read_bias(ByteReader& reader, std::uint64_t count,
                         std::uint32_t op_index) {
  std::vector<float> bias = read_array<float>(reader, count, op_index, "bias");
  if (bias.empty()) return {};
  const tensor::Shape shape{static_cast<std::int64_t>(bias.size())};
  return tensor::Tensor(shape, std::move(bias));
}

ProgramOp read_op(ByteReader& reader, std::uint32_t op_index) {
  if (reader.remaining() < sizeof(OpRecord)) {
    fail(ArtifactErrorCode::kTruncated,
         "op " + std::to_string(op_index) + "'s record is cut short at " +
             std::to_string(reader.remaining()) + " bytes");
  }
  OpRecord record;
  reader.bytes(&record, sizeof(record));
  if (!known_kind(record.kind)) {
    fail(ArtifactErrorCode::kBadProgram,
         "op " + std::to_string(op_index) + " has unknown kind " +
             std::to_string(record.kind));
  }
  ProgramOp op;
  op.kind = static_cast<ProgramOpKind>(record.kind);
  op.bits = record.bits;
  op.act_bits = record.act_bits;
  op.slope = record.slope;
  op.out_channels = record.out_channels;
  op.in_channels = record.in_channels;
  op.kernel = record.kernel;
  op.window = record.window;
  op.stride = record.stride;
  op.padding = record.padding;
  op.term_count = record.term_count;
  op.pow2.e_min = record.e_min;
  op.pow2.e_max = record.e_max;
  op.pow2.flush_to_zero = record.flush_to_zero != 0;
  op.main_ops = record.main_ops;
  op.shortcut_ops = record.shortcut_ops;
  op.post_ops = record.post_ops;
  op.has_shortcut = record.has_shortcut != 0;

  if (shift_kind(op.kind)) {
    // The int8 pack, copied: the adopting engine checks it and derives the
    // rest from its words (DESIGN.md §9).
    ShiftPlan& plan = op.plan;
    plan.k_max = record.k_max;
    plan.entry_count = record.entries;
    plan.live = read_array<std::int32_t>(reader, record.live_count, op_index,
                                         "live");
    plan.words = read_array<std::int32_t>(reader, record.word_count, op_index,
                                          "words");
    plan.negated = read_array<std::uint8_t>(reader, record.negated_count,
                                            op_index, "negated");
    op.bias = read_bias(reader, record.bias_count, op_index);
  } else if (op.kind == ProgramOpKind::kAffine) {
    op.scale = read_array<float>(reader, record.scale_count, op_index,
                                 "scale");
    op.affine_bias = read_array<float>(reader, record.bias_count, op_index,
                                       "bias");
  }
  return op;
}

}  // namespace

const char* artifact_error_name(ArtifactErrorCode code) {
  switch (code) {
    case ArtifactErrorCode::kIo: return "artifact io error";
    case ArtifactErrorCode::kTruncated: return "artifact truncated";
    case ArtifactErrorCode::kBadMagic: return "artifact bad magic";
    case ArtifactErrorCode::kBadVersion: return "artifact bad version";
    case ArtifactErrorCode::kBadHeader: return "artifact bad header";
    case ArtifactErrorCode::kBadChecksum: return "artifact bad checksum";
    case ArtifactErrorCode::kBadProgram: return "artifact bad program";
  }
  return "artifact error";
}

std::uint64_t artifact_checksum64(const std::uint8_t* data,
                                  std::size_t size) {
  // Interleaved FNV-1a-64: eight independent lanes stripe the payload
  // (lane j consumes bytes j, j+8, ...), then a final FNV pass folds the
  // lane states and the length. Plain FNV-1a is a single dependent
  // multiply chain (~1 byte/multiply-latency); eight chains keep the
  // multiplier pipelined, which matters because this checksum gates every
  // cold start and the artifact is sized in megabytes.
  constexpr std::uint64_t kBasis = 14695981039346656037ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t lane[8];
  for (std::uint64_t j = 0; j < 8; ++j) lane[j] = kBasis ^ (j * kPrime);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    for (std::size_t j = 0; j < 8; ++j) {
      lane[j] = (lane[j] ^ data[i + j]) * kPrime;
    }
  }
  for (std::size_t j = 0; i < size; ++i, ++j) {
    lane[j] = (lane[j] ^ data[i]) * kPrime;
  }
  std::uint64_t hash = kBasis ^ static_cast<std::uint64_t>(size);
  for (const std::uint64_t state : lane) {
    hash = (hash ^ (state & 0xFFFFFFFFULL)) * kPrime;
    hash = (hash ^ (state >> 32)) * kPrime;
  }
  return hash;
}

std::size_t artifact_op_bytes(const ProgramOp& op) {
  const ShiftPlan& plan = op.plan;
  const std::size_t floats = static_cast<std::size_t>(op.bias.numel()) +
                             op.scale.size() + op.affine_bias.size();
  return sizeof(OpRecord) +
         (plan.live.size() + plan.words.size()) * sizeof(std::int32_t) +
         plan.negated.size() + floats * sizeof(float);
}

FLIGHTNN_API_ENTRY std::vector<std::uint8_t> build_artifact(
    const NetworkProgram& program) {
  FLIGHTNN_CHECK(!program.ops.empty(), "build_artifact: empty program");
  FLIGHTNN_CHECK(program.input_c > 0 && program.input_h > 0 &&
                     program.input_w > 0,
                 "build_artifact: bad input geometry [", program.input_c, ", ",
                 program.input_h, ", ", program.input_w, "]");
  FLIGHTNN_CHECK(
      program.ops.size() <= std::numeric_limits<std::uint32_t>::max(),
      "build_artifact: too many ops");

  ArtifactHeader header;
  std::memcpy(header.magic, kArtifactMagic, sizeof(header.magic));
  header.version = kArtifactVersion;
  header.op_count = static_cast<std::uint32_t>(program.ops.size());
  header.input_c = program.input_c;
  header.input_h = program.input_h;
  header.input_w = program.input_w;
  // Reserve the whole blob, so writing never regrows it.
  std::size_t bytes = sizeof(ArtifactHeader);
  for (const ProgramOp& op : program.ops) bytes += artifact_op_bytes(op);
  ByteWriter writer;
  writer.reserve(bytes);
  writer.bytes(&header, sizeof(header));  // file_bytes and checksum patched
  for (const ProgramOp& op : program.ops) write_op(writer, op);
  std::vector<std::uint8_t> blob = writer.take();
  const std::uint64_t file_bytes = blob.size();
  std::memcpy(blob.data() + offsetof(ArtifactHeader, file_bytes), &file_bytes,
              sizeof(file_bytes));
  rewrite_artifact_checksum(blob);
  return blob;
}

void rewrite_artifact_checksum(std::vector<std::uint8_t>& blob) {
  FLIGHTNN_CHECK(blob.size() >= sizeof(ArtifactHeader),
                 "rewrite_artifact_checksum: blob smaller than a header");
  const std::uint64_t checksum =
      artifact_checksum64(blob.data() + sizeof(ArtifactHeader),
                          blob.size() - sizeof(ArtifactHeader));
  std::memcpy(blob.data() + offsetof(ArtifactHeader, payload_checksum),
              &checksum, sizeof(checksum));
}

FLIGHTNN_API_ENTRY void write_artifact(const std::vector<std::uint8_t>& blob,
                                       const std::string& path) {
  FLIGHTNN_CHECK(!path.empty(), "write_artifact: empty path");
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    fail(ArtifactErrorCode::kIo, "cannot open " + path + " for writing");
  }
  file.write(reinterpret_cast<const char*>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
  file.flush();
  if (!file) fail(ArtifactErrorCode::kIo, "write failed for " + path);
}

FLIGHTNN_API_ENTRY void save_artifact(const NetworkProgram& program,
                                      const std::string& path) {
  FLIGHTNN_CHECK(!path.empty(), "save_artifact: empty path");
  write_artifact(build_artifact(program), path);
}

FLIGHTNN_API_ENTRY inference::NetworkProgram parse_artifact(
    const std::uint8_t* data, std::size_t size) {
  FLIGHTNN_CHECK(data != nullptr || size == 0,
                 "parse_artifact: null data with nonzero size");
  // --- header ---
  if (size < sizeof(ArtifactHeader)) {
    fail(ArtifactErrorCode::kTruncated,
         "file is " + std::to_string(size) + " bytes, header needs " +
             std::to_string(sizeof(ArtifactHeader)));
  }
  ByteReader reader(data, size);
  ArtifactHeader header;
  reader.bytes(&header, sizeof(header));
  if (std::memcmp(header.magic, kArtifactMagic, sizeof(kArtifactMagic)) != 0) {
    fail(ArtifactErrorCode::kBadMagic, "not a FLightNN artifact");
  }
  if (header.version != kArtifactVersion) {
    fail(ArtifactErrorCode::kBadVersion,
         "format version " + std::to_string(header.version) +
             ", this loader reads " + std::to_string(kArtifactVersion));
  }
  if (header.file_bytes > size) {
    fail(ArtifactErrorCode::kTruncated,
         "header claims " + std::to_string(header.file_bytes) +
             " bytes, file holds " + std::to_string(size));
  }
  if (header.file_bytes != size) {
    fail(ArtifactErrorCode::kBadHeader,
         "trailing bytes beyond the declared file size");
  }
  const auto dim_ok = [](std::int64_t d) {
    return d >= 1 && d <= inference::kMaxOpDim;
  };
  if (!dim_ok(header.input_c) || !dim_ok(header.input_h) ||
      !dim_ok(header.input_w)) {
    fail(ArtifactErrorCode::kBadHeader, "input geometry out of range");
  }
  // --- checksum (everything after the header) ---
  const std::uint64_t checksum = artifact_checksum64(
      data + sizeof(ArtifactHeader), size - sizeof(ArtifactHeader));
  if (checksum != header.payload_checksum) {
    fail(ArtifactErrorCode::kBadChecksum, "payload checksum mismatch");
  }
  // --- the ops, each record followed by its arrays ---
  if (header.op_count == 0) {
    fail(ArtifactErrorCode::kBadProgram, "the program holds no ops");
  }
  if (header.op_count > reader.remaining() / sizeof(OpRecord)) {
    fail(ArtifactErrorCode::kTruncated,
         "op count " + std::to_string(header.op_count) + " does not fit the " +
             std::to_string(reader.remaining()) + " bytes after the header");
  }
  NetworkProgram program;
  program.input_c = header.input_c;
  program.input_h = header.input_h;
  program.input_w = header.input_w;
  program.ops.reserve(header.op_count);
  for (std::uint32_t i = 0; i < header.op_count; ++i) {
    program.ops.push_back(read_op(reader, i));
  }
  if (!reader.exhausted()) {
    fail(ArtifactErrorCode::kBadHeader,
         std::to_string(reader.remaining()) + " bytes follow the last of " +
             std::to_string(header.op_count) + " ops");
  }
  return program;
}

// --- ArtifactModel --------------------------------------------------------

ArtifactModel::Mapping::~Mapping() {
#if FLIGHTNN_ARTIFACT_HAS_MMAP
  if (mapped_) ::munmap(const_cast<std::uint8_t*>(data_), size_);
#endif
}

ArtifactModel::ArtifactModel(std::unique_ptr<Mapping> mapping,
                             inference::NetworkProgram program)
    : mapping_(std::move(mapping)),
      input_c_(program.input_c),
      input_h_(program.input_h),
      input_w_(program.input_w) {
  try {
    network_ = inference::QuantizedNetwork::from_program(std::move(program));
  } catch (const support::CheckFailure& failure) {
    // parse_artifact checked only the stream: from_program and the
    // adopting engines check the contents, and a program they reject is a
    // malformed artifact, not a caller bug.
    fail(ArtifactErrorCode::kBadProgram, failure.what());
  }
}

// FLIGHTNN_COLD_ALLOC: cold-start boundary -- the mapping wrapper and the
// adopted network are built exactly once per load, never on the hot path.
// (Also keeps the name-matching lint from conflating this `load` with
// std::atomic::load calls inside FLIGHTNN_HOT bodies.)
FLIGHTNN_COLD_ALLOC FLIGHTNN_API_ENTRY ArtifactModel ArtifactModel::load(
    const std::string& path) {
  FLIGHTNN_CHECK(!path.empty(), "ArtifactModel::load: empty path");
#if FLIGHTNN_ARTIFACT_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail(ArtifactErrorCode::kIo, "cannot open " + path);
  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    fail(ArtifactErrorCode::kIo, "cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    fail(ArtifactErrorCode::kTruncated, path + " is empty");
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) fail(ArtifactErrorCode::kIo, "mmap failed for " + path);
  auto mapping =
      std::make_unique<Mapping>(static_cast<const std::uint8_t*>(base), size);
  inference::NetworkProgram program =
      parse_artifact(mapping->data(), mapping->size());
  ArtifactModel model(std::move(mapping), std::move(program));
  // The network holds its own copies now, so drop the mapping's pages from
  // the resident set. The mapping stays: a later read of data() faults its
  // pages back in from the file. The drop is a syscall of ~3-6 us plus ~0.12
  // us per resident page (4-core x86-64 VM host), so a small file keeps its
  // few pages: measured on format v3, dropping the 14 KiB tiny FLightNN
  // artifact's cost its perf ledger workload 7% of `setup_s`, while
  // ResNet-18 w0.5's 201 KiB file is 2% of its workload's peak RSS.
  constexpr std::size_t kMinDroppedBytes = std::size_t{64} << 10;
  if (size >= kMinDroppedBytes) ::madvise(base, size, MADV_DONTNEED);
  return model;
#else
  // No mmap on this platform: read the file into a byte vector.
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) fail(ArtifactErrorCode::kIo, "cannot open " + path);
  const std::streamsize stream_size = file.tellg();
  if (stream_size <= 0) fail(ArtifactErrorCode::kTruncated, path + " is empty");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(stream_size));
  file.seekg(0);
  file.read(reinterpret_cast<char*>(bytes.data()), stream_size);
  if (!file) fail(ArtifactErrorCode::kIo, "read failed for " + path);
  auto mapping = std::make_unique<Mapping>(std::move(bytes));
  inference::NetworkProgram program =
      parse_artifact(mapping->data(), mapping->size());
  return ArtifactModel(std::move(mapping), std::move(program));
#endif
}

FLIGHTNN_COLD_ALLOC FLIGHTNN_API_ENTRY ArtifactModel ArtifactModel::load_buffer(
    const std::uint8_t* data, std::size_t size) {
  FLIGHTNN_CHECK(data != nullptr || size == 0,
                 "ArtifactModel::load_buffer: null data with nonzero size");
  auto mapping =
      std::make_unique<Mapping>(std::vector<std::uint8_t>(data, data + size));
  inference::NetworkProgram program =
      parse_artifact(mapping->data(), mapping->size());
  return ArtifactModel(std::move(mapping), std::move(program));
}

}  // namespace flightnn::serialize
