#include "serialize/artifact.hpp"

#include <cstddef>
#include <cstring>
#include <fstream>
#include <new>
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

// Section kinds v1 and v2 wrote and later versions retired (SectionKind
// keeps the gap).
constexpr std::uint32_t kFirstRetiredKind = 2;
constexpr std::uint32_t kLastRetiredKind = 9;

[[noreturn]] void fail(ArtifactErrorCode code, const std::string& message) {
  throw ArtifactError(code, message);
}

std::size_t align_up(std::size_t value, std::size_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

// --- Build ----------------------------------------------------------------

struct PendingSection {
  SectionKind kind;
  std::uint32_t op_index;
  const void* data;
  std::size_t bytes;
};

OpRecord encode_op(const ProgramOp& op, std::uint32_t op_index,
                   std::vector<PendingSection>& sections) {
  OpRecord record;
  for (auto& s : record.sec) s = kAbsentSection;
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

  const auto add = [&](int role, SectionKind kind, const void* data,
                       std::size_t bytes) {
    record.sec[role] = static_cast<std::uint32_t>(sections.size());
    sections.push_back(PendingSection{kind, op_index, data, bytes});
  };
  const bool shift_op = op.kind == ProgramOpKind::kShiftConv ||
                        op.kind == ProgramOpKind::kShiftLinear;
  const bool float_op = op.kind == ProgramOpKind::kFloatConv ||
                        op.kind == ProgramOpKind::kFloatLinear;
  if (shift_op) {
    // The int8 pack, the only stored form of shift weights. Role order here
    // IS the serialized section order per op -- part of the format's
    // determinism contract.
    const ShiftPlan& plan = op.plan;
    add(kRoleLive, SectionKind::kPackLive, plan.live.data(),
        plan.live.size() * sizeof(std::int32_t));
    add(kRoleWords, SectionKind::kPackWords, plan.words.data(),
        plan.words.size() * sizeof(std::int32_t));
    add(kRoleNegated, SectionKind::kPackNegated, plan.negated.data(),
        plan.negated.size());
  }
  if (float_op) {
    const auto& shape = op.weights.shape();
    record.weight_rank = static_cast<std::uint32_t>(shape.rank());
    for (std::size_t axis = 0; axis < shape.rank(); ++axis) {
      record.weight_dims[axis] = shape[axis];
    }
    add(kRoleWeights, SectionKind::kWeights, op.weights.data(),
        static_cast<std::size_t>(op.weights.numel()) * sizeof(float));
  }
  if ((shift_op || float_op) && !op.bias.empty()) {
    add(kRoleBias, SectionKind::kBias, op.bias.data(),
        static_cast<std::size_t>(op.bias.numel()) * sizeof(float));
  }
  if (op.kind == ProgramOpKind::kAffine) {
    add(kRoleAffineScale, SectionKind::kAffineScale, op.scale.data(),
        op.scale.size() * sizeof(float));
    add(kRoleAffineBias, SectionKind::kAffineBias, op.affine_bias.data(),
        op.affine_bias.size() * sizeof(float));
  }
  return record;
}

// --- Parse helpers --------------------------------------------------------
//
// The parser checks only the container: the header, the checksum, the
// section table and, per op record, its kind and each role's section. The
// op fields and plans it hands on are checked where every program is,
// whoever built it: QuantizedNetwork::from_program (every op field) and
// the plan-adopting engine (adopt_plan).

// Validated view of one section's payload.
struct SectionView {
  const std::uint8_t* data = nullptr;
  std::size_t bytes = 0;
};

// Resolve a role's section for `op_index`, checking kind and ownership.
// Returns nullopt-style {nullptr, 0} for absent optional roles.
SectionView resolve_section(const std::uint8_t* base,
                            const SectionDesc* sections,
                            std::uint32_t section_count, const OpRecord& record,
                            std::uint32_t op_index, int role,
                            SectionKind expected, bool required) {
  const std::uint32_t index = record.sec[role];
  if (index == kAbsentSection) {
    if (required) {
      fail(ArtifactErrorCode::kBadProgram,
           "op " + std::to_string(op_index) + " misses required section role " +
               std::to_string(role));
    }
    return {};
  }
  if (index >= section_count) {
    fail(ArtifactErrorCode::kBadProgram,
         "op " + std::to_string(op_index) + " references section " +
             std::to_string(index) + " of " + std::to_string(section_count));
  }
  const SectionDesc& desc = sections[index];
  if (desc.kind != static_cast<std::uint32_t>(expected) ||
      desc.op_index != op_index) {
    fail(ArtifactErrorCode::kBadProgram,
         "op " + std::to_string(op_index) + " section " +
             std::to_string(index) + " has wrong kind or owner");
  }
  return SectionView{base + desc.offset, static_cast<std::size_t>(desc.bytes)};
}

// Typed element count of a section whose payload is `elem_bytes`-sized.
std::size_t section_count_of(const SectionView& view, std::size_t elem_bytes,
                             std::uint32_t op_index, const char* what) {
  if (view.bytes % elem_bytes != 0) {
    fail(ArtifactErrorCode::kBadProgram,
         "op " + std::to_string(op_index) + " " + what +
             " section is not a whole number of elements");
  }
  return view.bytes / elem_bytes;
}

// A plan section copied out whole (byte-wise: parse_artifact takes `data`
// at any alignment).
template <typename T>
std::vector<T> copy_section(const SectionView& view, std::uint32_t op_index,
                            const char* what) {
  std::vector<T> out(section_count_of(view, sizeof(T), op_index, what));
  if (!out.empty()) std::memcpy(out.data(), view.data, view.bytes);
  return out;
}

// A float section copied out whole, as a tensor of `shape`.
tensor::Tensor copy_floats(const SectionView& view, const tensor::Shape& shape) {
  tensor::Tensor out(shape);
  std::memcpy(out.data(), view.data, view.bytes);
  return out;
}

ProgramOp decode_op(const std::uint8_t* base, const SectionDesc* sections,
                    std::uint32_t section_count, const OpRecord& record,
                    std::uint32_t op_index) {
  ProgramOp op;
  const auto kind_value = record.kind;
  if (kind_value < static_cast<std::uint32_t>(ProgramOpKind::kQuantAct) ||
      kind_value > static_cast<std::uint32_t>(ProgramOpKind::kResidual)) {
    fail(ArtifactErrorCode::kBadProgram,
         "op " + std::to_string(op_index) + " has unknown kind " +
             std::to_string(kind_value));
  }
  op.kind = static_cast<ProgramOpKind>(kind_value);
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

  const auto resolve = [&](int role, SectionKind kind, bool required) {
    return resolve_section(base, sections, section_count, record, op_index,
                           role, kind, required);
  };
  // Element count of a section of whole floats.
  const auto float_count = [&](const SectionView& view, const char* what) {
    return static_cast<std::int64_t>(
        section_count_of(view, sizeof(float), op_index, what));
  };
  const auto optional_bias = [&]() -> tensor::Tensor {
    const SectionView view = resolve(kRoleBias, SectionKind::kBias, false);
    if (view.data == nullptr) return {};
    return copy_floats(view, tensor::Shape{float_count(view, "bias")});
  };

  switch (op.kind) {
    case ProgramOpKind::kShiftConv:
    case ProgramOpKind::kShiftLinear: {
      // The int8 pack, copied: the adopting engine checks it and derives the
      // rest from its words (DESIGN.md §9).
      ShiftPlan& plan = op.plan;
      plan.k_max = record.k_max;
      plan.entry_count = record.entries;
      plan.live = copy_section<std::int32_t>(
          resolve(kRoleLive, SectionKind::kPackLive, true), op_index, "live");
      plan.words = copy_section<std::int32_t>(
          resolve(kRoleWords, SectionKind::kPackWords, true), op_index,
          "words");
      plan.negated = copy_section<std::uint8_t>(
          resolve(kRoleNegated, SectionKind::kPackNegated, true), op_index,
          "negated");
      op.bias = optional_bias();
      break;
    }
    case ProgramOpKind::kFloatConv:
    case ProgramOpKind::kFloatLinear: {
      if (record.weight_rank > 4) {
        fail(ArtifactErrorCode::kBadProgram,
             "op " + std::to_string(op_index) + " float weights rank " +
                 std::to_string(record.weight_rank) + " exceeds 4");
      }
      const std::vector<std::int64_t> dims(
          record.weight_dims, record.weight_dims + record.weight_rank);
      const SectionView weights_view =
          resolve(kRoleWeights, SectionKind::kWeights, true);
      // dims x 4 = the section's bytes, multiplied without overflow.
      std::uint64_t bytes = sizeof(float);
      for (const std::int64_t d : dims) {
        if (d < 0 ||
            __builtin_mul_overflow(bytes, static_cast<std::uint64_t>(d),
                                   &bytes)) {
          bytes = ~std::uint64_t{0};
          break;
        }
      }
      if (bytes != weights_view.bytes) {
        fail(ArtifactErrorCode::kBadProgram,
             "op " + std::to_string(op_index) +
                 " weights section does not match its dims");
      }
      op.weights = copy_floats(weights_view, tensor::Shape(dims));
      op.bias = optional_bias();
      break;
    }
    case ProgramOpKind::kAffine: {
      const SectionView scale_view =
          resolve(kRoleAffineScale, SectionKind::kAffineScale, true);
      const SectionView bias_view =
          resolve(kRoleAffineBias, SectionKind::kAffineBias, true);
      const auto* scale = reinterpret_cast<const float*>(scale_view.data);
      const auto* bias = reinterpret_cast<const float*>(bias_view.data);
      op.scale.assign(scale, scale + float_count(scale_view, "scale"));
      op.affine_bias.assign(bias, bias + float_count(bias_view, "bias"));
      break;
    }
    case ProgramOpKind::kQuantAct:
    case ProgramOpKind::kLeakyRelu:
    case ProgramOpKind::kMaxPool:
    case ProgramOpKind::kGap:
    case ProgramOpKind::kFlatten:
    case ProgramOpKind::kResidual:
      break;
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
    case ArtifactErrorCode::kBadSection: return "artifact bad section";
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

FLIGHTNN_API_ENTRY std::vector<std::uint8_t> build_artifact(
    const NetworkProgram& program) {
  FLIGHTNN_CHECK(!program.ops.empty(), "build_artifact: empty program");
  FLIGHTNN_CHECK(program.input_c > 0 && program.input_h > 0 &&
                     program.input_w > 0,
                 "build_artifact: bad input geometry [", program.input_c, ", ",
                 program.input_h, ", ", program.input_w, "]");
  FLIGHTNN_CHECK(program.ops.size() < kAbsentSection,
                 "build_artifact: too many ops");

  // Pass 1: encode records and collect the section list in role order.
  std::vector<OpRecord> records;
  records.reserve(program.ops.size());
  std::vector<PendingSection> sections;
  sections.push_back(PendingSection{SectionKind::kProgram, kAbsentSection,
                                    nullptr, 0});  // patched below
  for (std::size_t i = 0; i < program.ops.size(); ++i) {
    records.push_back(
        encode_op(program.ops[i], static_cast<std::uint32_t>(i), sections));
  }
  sections[0].data = records.data();
  sections[0].bytes = records.size() * sizeof(OpRecord);

  // Pass 2: lay out -- header, table, then 64-byte-aligned sections.
  ArtifactHeader header;
  std::memcpy(header.magic, kArtifactMagic, sizeof(header.magic));
  header.version = kArtifactVersion;
  header.header_bytes = sizeof(ArtifactHeader);
  header.section_table_offset = sizeof(ArtifactHeader);
  header.section_count = static_cast<std::uint32_t>(sections.size());
  header.op_count = static_cast<std::uint32_t>(records.size());
  header.input_c = program.input_c;
  header.input_h = program.input_h;
  header.input_w = program.input_w;

  std::vector<SectionDesc> table(sections.size());
  std::size_t cursor =
      sizeof(ArtifactHeader) + sections.size() * sizeof(SectionDesc);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    cursor = align_up(cursor, kArtifactAlignment);
    table[i].kind = static_cast<std::uint32_t>(sections[i].kind);
    table[i].op_index = sections[i].op_index;
    table[i].offset = cursor;
    table[i].bytes = sections[i].bytes;
    cursor += sections[i].bytes;
  }
  header.file_bytes = cursor;

  ByteWriter writer;
  writer.reserve(cursor);
  writer.bytes(&header, sizeof(header));
  writer.bytes(table.data(), table.size() * sizeof(SectionDesc));
  for (std::size_t i = 0; i < sections.size(); ++i) {
    writer.align_to(kArtifactAlignment);
    if (sections[i].bytes > 0) {
      writer.bytes(sections[i].data, sections[i].bytes);
    }
  }
  std::vector<std::uint8_t> blob = writer.take();
  FLIGHTNN_CHECK(blob.size() == cursor,
                 "build_artifact: layout/write size mismatch (", blob.size(),
                 " vs ", cursor, ")");
  rewrite_artifact_checksum(blob);
  return blob;
}

void rewrite_artifact_checksum(std::vector<std::uint8_t>& blob) {
  FLIGHTNN_CHECK(blob.size() >= sizeof(ArtifactHeader),
                 "rewrite_artifact_checksum: blob smaller than a header");
  const std::uint64_t checksum = artifact_checksum64(blob.data() + sizeof(ArtifactHeader),
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
  ArtifactHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (std::memcmp(header.magic, kArtifactMagic, sizeof(kArtifactMagic)) != 0) {
    fail(ArtifactErrorCode::kBadMagic, "not a FLightNN artifact");
  }
  if (header.version != kArtifactVersion) {
    fail(ArtifactErrorCode::kBadVersion,
         "format version " + std::to_string(header.version) +
             ", this loader reads " + std::to_string(kArtifactVersion));
  }
  if (header.header_bytes != sizeof(ArtifactHeader) ||
      header.section_table_offset != sizeof(ArtifactHeader)) {
    fail(ArtifactErrorCode::kBadHeader,
         "header geometry fields are inconsistent");
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
  const std::uint64_t checksum =
      artifact_checksum64(data + sizeof(ArtifactHeader), size - sizeof(ArtifactHeader));
  if (checksum != header.payload_checksum) {
    fail(ArtifactErrorCode::kBadChecksum, "payload checksum mismatch");
  }
  // --- section table ---
  const std::size_t table_capacity =
      (size - sizeof(ArtifactHeader)) / sizeof(SectionDesc);
  if (header.section_count == 0 || header.section_count > table_capacity) {
    fail(ArtifactErrorCode::kBadSection,
         "section count " + std::to_string(header.section_count) +
             " does not fit the file");
  }
  const auto* sections =
      reinterpret_cast<const SectionDesc*>(data + sizeof(ArtifactHeader));
  const std::size_t table_end =
      sizeof(ArtifactHeader) + header.section_count * sizeof(SectionDesc);
  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    const SectionDesc& desc = sections[i];
    if (desc.kind < static_cast<std::uint32_t>(SectionKind::kProgram) ||
        desc.kind > static_cast<std::uint32_t>(SectionKind::kPackNegated)) {
      fail(ArtifactErrorCode::kBadSection,
           "section " + std::to_string(i) + " has unknown kind " +
               std::to_string(desc.kind));
    }
    if (desc.kind >= kFirstRetiredKind && desc.kind <= kLastRetiredKind) {
      fail(ArtifactErrorCode::kBadSection,
           "section " + std::to_string(i) + " has retired kind " +
               std::to_string(desc.kind));
    }
    if (desc.offset % kArtifactAlignment != 0) {
      fail(ArtifactErrorCode::kBadSection,
           "section " + std::to_string(i) + " offset " +
               std::to_string(desc.offset) + " is not 64-byte aligned");
    }
    // Overflow-proof range check: offset and bytes each bounded by the file
    // size before their sum is formed.
    if (desc.offset < table_end || desc.offset > size ||
        desc.bytes > size - desc.offset) {
      fail(ArtifactErrorCode::kBadSection,
           "section " + std::to_string(i) + " range [" +
               std::to_string(desc.offset) + ", +" +
               std::to_string(desc.bytes) + ") escapes the file");
    }
  }
  // --- program section ---
  if (sections[0].kind != static_cast<std::uint32_t>(SectionKind::kProgram) ||
      sections[0].op_index != kAbsentSection) {
    fail(ArtifactErrorCode::kBadSection,
         "section 0 must be the program section");
  }
  for (std::uint32_t i = 1; i < header.section_count; ++i) {
    if (sections[i].kind == static_cast<std::uint32_t>(SectionKind::kProgram)) {
      fail(ArtifactErrorCode::kBadSection, "duplicate program section");
    }
  }
  if (header.op_count == 0 ||
      sections[0].bytes !=
          static_cast<std::uint64_t>(header.op_count) * sizeof(OpRecord)) {
    fail(ArtifactErrorCode::kBadProgram,
         "program section does not hold " + std::to_string(header.op_count) +
             " op records");
  }
  const auto* records =
      reinterpret_cast<const OpRecord*>(data + sections[0].offset);
  // --- per-op decode: kind and sections ---
  NetworkProgram program;
  program.input_c = header.input_c;
  program.input_h = header.input_h;
  program.input_w = header.input_w;
  program.ops.reserve(header.op_count);
  for (std::uint32_t i = 0; i < header.op_count; ++i) {
    program.ops.push_back(
        decode_op(data, sections, header.section_count, records[i], i));
  }
  return program;
}

// --- ArtifactModel --------------------------------------------------------

ArtifactModel::Mapping::~Mapping() {
  if (data_ == nullptr) return;
  if (mmapped_) {
#if FLIGHTNN_ARTIFACT_HAS_MMAP
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
#endif
  } else {
    ::operator delete(const_cast<std::uint8_t*>(data_),
                      std::align_val_t{kArtifactAlignment});
  }
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
    // parse_artifact checked only the container: from_program and the
    // adopting engines check the contents, and a program they reject is a
    // malformed artifact, not a caller bug.
    fail(ArtifactErrorCode::kBadProgram, failure.what());
  }
}

namespace {

// kArtifactAlignment-aligned heap block so every section is aligned exactly
// as it would be under mmap (page-aligned base).
std::uint8_t* aligned_alloc_bytes(std::size_t size) {
  return static_cast<std::uint8_t*>(
      ::operator new(size, std::align_val_t{kArtifactAlignment}));
}

}  // namespace

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
  auto mapping = std::make_unique<Mapping>(
      static_cast<const std::uint8_t*>(base), size, /*mmapped=*/true);
  inference::NetworkProgram program =
      parse_artifact(mapping->data(), mapping->size());
  ArtifactModel model(std::move(mapping), std::move(program));
  // The network holds its own copies now, so drop the mapping's pages from
  // the resident set. The mapping stays: a later read of data() faults its
  // pages back in from the file. The drop is a syscall of ~3-6 us plus ~0.12
  // us per resident page (4-core x86-64 VM host), so a small file keeps its
  // few pages: dropping the 14 KiB tiny FLightNN artifact's cost its perf
  // ledger workload 7% of `setup_s`, while ResNet-18 w0.5's 201 KiB file is
  // 2% of its workload's peak RSS.
  constexpr std::size_t kMinDroppedBytes = std::size_t{64} << 10;
  if (size >= kMinDroppedBytes) ::madvise(base, size, MADV_DONTNEED);
  return model;
#else
  // No mmap on this platform: stream the file into an aligned buffer.
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) fail(ArtifactErrorCode::kIo, "cannot open " + path);
  const std::streamsize stream_size = file.tellg();
  if (stream_size <= 0) fail(ArtifactErrorCode::kTruncated, path + " is empty");
  const auto size = static_cast<std::size_t>(stream_size);
  std::uint8_t* buffer = aligned_alloc_bytes(size);
  auto mapping = std::make_unique<Mapping>(buffer, size, /*mmapped=*/false);
  file.seekg(0);
  file.read(reinterpret_cast<char*>(buffer), stream_size);
  if (!file) fail(ArtifactErrorCode::kIo, "read failed for " + path);
  inference::NetworkProgram program = parse_artifact(buffer, size);
  return ArtifactModel(std::move(mapping), std::move(program));
#endif
}

FLIGHTNN_COLD_ALLOC FLIGHTNN_API_ENTRY ArtifactModel ArtifactModel::load_buffer(
    const std::uint8_t* data, std::size_t size) {
  FLIGHTNN_CHECK(data != nullptr || size == 0,
                 "ArtifactModel::load_buffer: null data with nonzero size");
  std::uint8_t* buffer = aligned_alloc_bytes(size == 0 ? 1 : size);
  auto mapping = std::make_unique<Mapping>(buffer, size, /*mmapped=*/false);
  if (size > 0) std::memcpy(buffer, data, size);
  inference::NetworkProgram program = parse_artifact(buffer, size);
  return ArtifactModel(std::move(mapping), std::move(program));
}

}  // namespace flightnn::serialize
