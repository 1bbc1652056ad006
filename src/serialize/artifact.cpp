#include "serialize/artifact.hpp"

#include <cmath>
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
using inference::PlanArray;
using inference::ProgramOp;
using inference::ProgramOpKind;
using inference::ShiftPlan;

// Structural sanity caps. A valid artifact never gets near them; a hostile
// one cannot use a 24-byte section descriptor to demand gigabytes of work.
constexpr std::int64_t kGeomCap = std::int64_t{1} << 24;   // any single dim
constexpr std::int64_t kEntryCap = std::int64_t{1} << 31;  // plan entries
constexpr std::int64_t kTermCap = std::int64_t{1} << 40;   // term census
constexpr int kMaxResidualDepth = 64;  // caps validation/build recursion
constexpr int kMaxShift = 61;  // barrel budget: 1 << shift stays in int64
// Section kinds v1 wrote and v2 retired (SectionKind keeps the gaps).
constexpr std::uint32_t kRetiredElementKind = 2;
constexpr std::uint32_t kRetiredGainKind = 9;

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
  record.main_ops = op.main_ops;
  record.shortcut_ops = op.shortcut_ops;
  record.post_ops = op.post_ops;
  record.k_max = op.k_max;
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
    // The plan's core streams, the only stored form of shift weights. Role
    // order here IS the serialized section order per op -- part of the
    // format's determinism contract.
    const ShiftPlan& plan = op.plan;
    const auto n = static_cast<std::size_t>(plan.entries());
    add(kRoleChannel, SectionKind::kPlanChannel, plan.channel.data(),
        n * sizeof(std::int32_t));
    add(kRoleKy, SectionKind::kPlanKy, plan.ky.data(), n * sizeof(std::int16_t));
    add(kRoleKx, SectionKind::kPlanKx, plan.kx.data(), n * sizeof(std::int16_t));
    add(kRoleShift, SectionKind::kPlanShift, plan.shift.data(), n);
    add(kRoleSign, SectionKind::kPlanSign, plan.sign.data(), n);
    add(kRoleFilterBegin, SectionKind::kPlanFilterBegin,
        plan.filter_begin.data(),
        plan.filter_begin.size() * sizeof(std::int64_t));
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

void check_geom(std::int64_t value, std::int64_t lo, std::uint32_t op_index,
                const char* what) {
  if (value < lo || value > kGeomCap) {
    fail(ArtifactErrorCode::kBadProgram,
         "op " + std::to_string(op_index) + " " + what + " " +
             std::to_string(value) + " outside [" + std::to_string(lo) + ", 2^24]");
  }
}

// Deep per-entry plan validation. The hot kernels index these streams
// unchecked, so everything they trust is proven here: each entry's tap
// inside the layer (channel < in_channels, ky and kx below the kernel; a
// linear op's kernel is 1), the sign and shift domains, and the filter
// prefix. The derived streams (gains and multipliers; DESIGN.md §9, §14)
// are not stored: the plan-adopting engine derives them from these
// validated views, so mapped plans stay zero-copy.
ShiftPlan validate_plan(const std::uint8_t* base, const SectionDesc* sections,
                        std::uint32_t section_count, const OpRecord& record,
                        std::uint32_t op_index) {
  const auto resolve = [&](int role, SectionKind kind) {
    return resolve_section(base, sections, section_count, record, op_index,
                           role, kind, /*required=*/true);
  };
  const SectionView channel_view = resolve(kRoleChannel, SectionKind::kPlanChannel);
  const std::size_t entries =
      section_count_of(channel_view, sizeof(std::int32_t), op_index, "channel");
  if (static_cast<std::int64_t>(entries) > kEntryCap) {
    fail(ArtifactErrorCode::kBadProgram,
         "op " + std::to_string(op_index) + " plan entry count " +
             std::to_string(entries) + " exceeds the 2^31 cap");
  }
  const auto expect_entries = [&](const SectionView& view,
                                  std::size_t elem_bytes, const char* what) {
    if (section_count_of(view, elem_bytes, op_index, what) != entries) {
      fail(ArtifactErrorCode::kBadProgram,
           "op " + std::to_string(op_index) + " " + what +
               " stream does not match the entry count");
    }
  };
  const SectionView ky_view = resolve(kRoleKy, SectionKind::kPlanKy);
  const SectionView kx_view = resolve(kRoleKx, SectionKind::kPlanKx);
  const SectionView shift_view = resolve(kRoleShift, SectionKind::kPlanShift);
  const SectionView sign_view = resolve(kRoleSign, SectionKind::kPlanSign);
  expect_entries(ky_view, sizeof(std::int16_t), "ky");
  expect_entries(kx_view, sizeof(std::int16_t), "kx");
  expect_entries(shift_view, 1, "shift");
  expect_entries(sign_view, 1, "sign");

  const std::int64_t filters = record.out_channels;
  const SectionView begin_view =
      resolve(kRoleFilterBegin, SectionKind::kPlanFilterBegin);
  if (section_count_of(begin_view, sizeof(std::int64_t), op_index,
                       "filter_begin") != static_cast<std::size_t>(filters) + 1) {
    fail(ArtifactErrorCode::kBadProgram,
         "op " + std::to_string(op_index) + " filter_begin does not cover " +
             std::to_string(filters) + " filters");
  }

  ShiftPlan plan;
  plan.filters = filters;
  plan.channel = PlanArray<std::int32_t>::view(
      reinterpret_cast<const std::int32_t*>(channel_view.data), entries);
  plan.ky = PlanArray<std::int16_t>::view(
      reinterpret_cast<const std::int16_t*>(ky_view.data), entries);
  plan.kx = PlanArray<std::int16_t>::view(
      reinterpret_cast<const std::int16_t*>(kx_view.data), entries);
  plan.shift = PlanArray<std::int8_t>::view(
      reinterpret_cast<const std::int8_t*>(shift_view.data), entries);
  plan.sign = PlanArray<std::int8_t>::view(
      reinterpret_cast<const std::int8_t*>(sign_view.data), entries);
  plan.filter_begin = PlanArray<std::int64_t>::view(
      reinterpret_cast<const std::int64_t*>(begin_view.data),
      static_cast<std::size_t>(filters) + 1);

  // Shift budget: exponents live in [e_min, e_max], so shifts live in
  // [0, e_max - e_min]; the whole range must fit the barrel budget.
  const int shift_levels = record.e_max - record.e_min;
  if (shift_levels < 0 || shift_levels > kMaxShift) {
    fail(ArtifactErrorCode::kBadProgram,
         "op " + std::to_string(op_index) + " exponent range [" +
             std::to_string(record.e_min) + ", " + std::to_string(record.e_max) +
             "] outside the barrel shifter budget");
  }
  // Read the streams through a const alias: the plan's arrays are views,
  // and only PlanArray's const accessors read through a view.
  const ShiftPlan& streams = plan;
  // filter_begin: a monotone prefix spanning exactly the entry stream.
  if (streams.filter_begin.front() != 0 ||
      streams.filter_begin.back() != static_cast<std::int64_t>(entries)) {
    fail(ArtifactErrorCode::kBadProgram,
         "op " + std::to_string(op_index) +
             " filter_begin does not span the entry stream");
  }
  for (std::size_t f = 1; f < plan.filter_begin.size(); ++f) {
    if (streams.filter_begin[f - 1] > streams.filter_begin[f]) {
      fail(ArtifactErrorCode::kBadProgram,
           "op " + std::to_string(op_index) + " filter_begin not monotone at " +
               std::to_string(f));
    }
  }
  // Per-entry domains.
  const std::int64_t kernel = record.kernel;
  for (std::size_t e = 0; e < entries; ++e) {
    const int sign = streams.sign[e];
    const int shift = streams.shift[e];
    if (sign != 1 && sign != -1) {
      fail(ArtifactErrorCode::kBadProgram,
           "op " + std::to_string(op_index) + " entry " + std::to_string(e) +
               " sign " + std::to_string(sign) + " not in {-1, +1}");
    }
    if (shift < 0 || shift > shift_levels) {
      fail(ArtifactErrorCode::kBadProgram,
           "op " + std::to_string(op_index) + " entry " + std::to_string(e) +
               " shift " + std::to_string(shift) + " outside [0, " +
               std::to_string(shift_levels) + "]");
    }
    const std::int64_t channel = streams.channel[e];
    const std::int64_t ky = streams.ky[e];
    const std::int64_t kx = streams.kx[e];
    if (channel < 0 || channel >= record.in_channels || ky < 0 ||
        ky >= kernel || kx < 0 || kx >= kernel) {
      fail(ArtifactErrorCode::kBadProgram,
           "op " + std::to_string(op_index) + " entry " + std::to_string(e) +
               " tap (" + std::to_string(channel) + ", " + std::to_string(ky) +
               ", " + std::to_string(kx) + ") outside the [" +
               std::to_string(record.in_channels) + ", " +
               std::to_string(kernel) + ", " + std::to_string(kernel) +
               "] filter");
    }
  }
  return plan;
}

tensor::Tensor copy_floats(const SectionView& view, const tensor::Shape& shape) {
  tensor::Tensor out(shape);
  std::memcpy(out.data(), view.data, view.bytes);
  return out;
}

// Residual segment-count audit over the raw records: every segment must
// consume exactly its claimed ops, with bounded nesting so a hostile
// artifact cannot drive the recursive builders into stack exhaustion.
void consume_op(const OpRecord* records, std::size_t& cursor, std::size_t end,
                int depth);

void consume_segment(const OpRecord* records, std::size_t& cursor,
                     std::int64_t count, std::size_t end, int depth) {
  if (count < 0 || static_cast<std::size_t>(count) > end - cursor) {
    fail(ArtifactErrorCode::kBadProgram,
         "residual segment claims " + std::to_string(count) + " ops but " +
             std::to_string(end - cursor) + " remain");
  }
  const std::size_t segment_end = cursor + static_cast<std::size_t>(count);
  while (cursor < segment_end) consume_op(records, cursor, segment_end, depth);
}

void consume_op(const OpRecord* records, std::size_t& cursor, std::size_t end,
                int depth) {
  const OpRecord& record = records[cursor];
  ++cursor;
  if (record.kind != static_cast<std::uint32_t>(ProgramOpKind::kResidual)) {
    return;
  }
  if (depth >= kMaxResidualDepth) {
    fail(ArtifactErrorCode::kBadProgram, "residual nesting exceeds depth cap");
  }
  consume_segment(records, cursor, record.main_ops, end, depth + 1);
  consume_segment(records, cursor, record.shortcut_ops, end, depth + 1);
  consume_segment(records, cursor, record.post_ops, end, depth + 1);
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
  op.k_max = record.k_max;
  op.pow2.e_min = record.e_min;
  op.pow2.e_max = record.e_max;
  op.pow2.flush_to_zero = record.flush_to_zero != 0;
  op.main_ops = record.main_ops;
  op.shortcut_ops = record.shortcut_ops;
  op.post_ops = record.post_ops;
  op.has_shortcut = record.has_shortcut != 0;

  const auto optional_floats = [&](int role, SectionKind kind,
                                   std::int64_t expect_count,
                                   const char* what) -> tensor::Tensor {
    const SectionView view = resolve_section(base, sections, section_count,
                                             record, op_index, role, kind,
                                             /*required=*/false);
    if (view.data == nullptr) return {};
    if (view.bytes != static_cast<std::size_t>(expect_count) * sizeof(float)) {
      fail(ArtifactErrorCode::kBadProgram,
           "op " + std::to_string(op_index) + " " + what + " section holds " +
               std::to_string(view.bytes / sizeof(float)) + " floats, expected " +
               std::to_string(expect_count));
    }
    return copy_floats(view, tensor::Shape{expect_count});
  };

  switch (op.kind) {
    case ProgramOpKind::kQuantAct:
      if (record.bits < 2 || record.bits > 16) {
        fail(ArtifactErrorCode::kBadProgram,
             "op " + std::to_string(op_index) + " quant bits " +
                 std::to_string(record.bits) + " outside [2, 16]");
      }
      break;
    case ProgramOpKind::kShiftConv:
    case ProgramOpKind::kShiftLinear: {
      const bool conv = op.kind == ProgramOpKind::kShiftConv;
      if (record.act_bits < 2 || record.act_bits > 16) {
        fail(ArtifactErrorCode::kBadProgram,
             "op " + std::to_string(op_index) + " act bits " +
                 std::to_string(record.act_bits) + " outside [2, 16]");
      }
      check_geom(record.out_channels, 1, op_index, "out channels");
      check_geom(record.in_channels, 1, op_index, "in channels");
      check_geom(record.kernel, 1, op_index, "kernel");
      check_geom(record.stride, 1, op_index, "stride");
      check_geom(record.padding, 0, op_index, "padding");
      if (!conv && (record.kernel != 1 || record.stride != 1 ||
                    record.padding != 0)) {
        fail(ArtifactErrorCode::kBadProgram,
             "op " + std::to_string(op_index) +
                 " linear op is not a 1x1, stride-1, padding-0 conv");
      }
      if (record.term_count < 0 || record.term_count > kTermCap) {
        fail(ArtifactErrorCode::kBadProgram,
             "op " + std::to_string(op_index) + " term count " +
                 std::to_string(record.term_count) + " out of range");
      }
      op.plan = validate_plan(base, sections, section_count, record, op_index);
      op.bias = optional_floats(kRoleBias, SectionKind::kBias,
                                record.out_channels, "bias");
      break;
    }
    case ProgramOpKind::kFloatConv:
    case ProgramOpKind::kFloatLinear: {
      const bool conv = op.kind == ProgramOpKind::kFloatConv;
      const std::uint32_t expect_rank = conv ? 4 : 2;
      if (record.weight_rank != expect_rank) {
        fail(ArtifactErrorCode::kBadProgram,
             "op " + std::to_string(op_index) + " float weights rank " +
                 std::to_string(record.weight_rank) + ", expected " +
                 std::to_string(expect_rank));
      }
      std::vector<std::int64_t> dims(expect_rank);
      std::int64_t numel = 1;
      for (std::uint32_t axis = 0; axis < expect_rank; ++axis) {
        const std::int64_t d = record.weight_dims[axis];
        check_geom(d, 1, op_index, "weight dim");
        dims[axis] = d;
        numel *= d;  // bounded: kGeomCap^4 < 2^63 does not hold; cap below
        if (numel > (std::int64_t{1} << 40)) {
          fail(ArtifactErrorCode::kBadProgram,
               "op " + std::to_string(op_index) + " float weights too large");
        }
      }
      if (dims[0] != record.out_channels || dims[1] != record.in_channels ||
          (conv && (dims[2] != record.kernel || dims[3] != record.kernel))) {
        fail(ArtifactErrorCode::kBadProgram,
             "op " + std::to_string(op_index) +
                 " weight dims disagree with the op geometry");
      }
      if (conv) {
        check_geom(record.stride, 1, op_index, "stride");
        check_geom(record.padding, 0, op_index, "padding");
      }
      const SectionView weights_view = resolve_section(
          base, sections, section_count, record, op_index, kRoleWeights,
          SectionKind::kWeights, /*required=*/true);
      if (weights_view.bytes !=
          static_cast<std::size_t>(numel) * sizeof(float)) {
        fail(ArtifactErrorCode::kBadProgram,
             "op " + std::to_string(op_index) +
                 " weights section does not match its dims");
      }
      op.weights = copy_floats(weights_view, tensor::Shape(dims));
      op.bias = optional_floats(kRoleBias, SectionKind::kBias,
                                record.out_channels, "bias");
      break;
    }
    case ProgramOpKind::kAffine: {
      const SectionView scale_view = resolve_section(
          base, sections, section_count, record, op_index, kRoleAffineScale,
          SectionKind::kAffineScale, /*required=*/true);
      const SectionView bias_view = resolve_section(
          base, sections, section_count, record, op_index, kRoleAffineBias,
          SectionKind::kAffineBias, /*required=*/true);
      const std::size_t channels =
          section_count_of(scale_view, sizeof(float), op_index, "scale");
      if (static_cast<std::int64_t>(channels) > kGeomCap || channels == 0) {
        fail(ArtifactErrorCode::kBadProgram,
             "op " + std::to_string(op_index) + " affine channel count " +
                 std::to_string(channels) + " out of range");
      }
      if (section_count_of(bias_view, sizeof(float), op_index, "bias") !=
          channels) {
        fail(ArtifactErrorCode::kBadProgram,
             "op " + std::to_string(op_index) + " affine scale/bias disagree");
      }
      const auto* scale = reinterpret_cast<const float*>(scale_view.data);
      const auto* bias = reinterpret_cast<const float*>(bias_view.data);
      op.scale.assign(scale, scale + channels);
      op.affine_bias.assign(bias, bias + channels);
      break;
    }
    case ProgramOpKind::kLeakyRelu:
      if (!std::isfinite(record.slope)) {
        fail(ArtifactErrorCode::kBadProgram,
             "op " + std::to_string(op_index) + " leaky-relu slope not finite");
      }
      break;
    case ProgramOpKind::kMaxPool:
      check_geom(record.window, 1, op_index, "window");
      check_geom(record.stride, 1, op_index, "stride");
      break;
    case ProgramOpKind::kGap:
    case ProgramOpKind::kFlatten:
      break;
    case ProgramOpKind::kResidual:
      if (record.main_ops < 0 || record.shortcut_ops < 0 ||
          record.post_ops < 0 ||
          (record.has_shortcut == 0 && record.shortcut_ops != 0)) {
        fail(ArtifactErrorCode::kBadProgram,
             "op " + std::to_string(op_index) + " residual counts invalid");
      }
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

FLIGHTNN_API_ENTRY void save_artifact(const NetworkProgram& program,
                                      const std::string& path) {
  FLIGHTNN_CHECK(!path.empty(), "save_artifact: empty path");
  const std::vector<std::uint8_t> blob = build_artifact(program);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    fail(ArtifactErrorCode::kIo, "cannot open " + path + " for writing");
  }
  file.write(reinterpret_cast<const char*>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
  file.flush();
  if (!file) fail(ArtifactErrorCode::kIo, "write failed for " + path);
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
  if (header.input_c < 1 || header.input_c > kGeomCap || header.input_h < 1 ||
      header.input_h > kGeomCap || header.input_w < 1 ||
      header.input_w > kGeomCap) {
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
        desc.kind > static_cast<std::uint32_t>(SectionKind::kAffineBias)) {
      fail(ArtifactErrorCode::kBadSection,
           "section " + std::to_string(i) + " has unknown kind " +
               std::to_string(desc.kind));
    }
    if (desc.kind == kRetiredElementKind || desc.kind == kRetiredGainKind) {
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
  // --- residual segment audit before any decode ---
  std::size_t cursor = 0;
  consume_segment(records, cursor, header.op_count, header.op_count, 0);
  // --- per-op decode + deep plan validation ---
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
    // A program that passed the format validators but still trips an engine
    // contract is a malformed artifact, not a caller bug.
    fail(ArtifactErrorCode::kBadProgram, failure.what());
  }
}

namespace {

// kArtifactAlignment-aligned heap block so the plan streams' int64 views
// are aligned exactly as they would be under mmap (page-aligned base).
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
  return ArtifactModel(std::move(mapping), std::move(program));
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
