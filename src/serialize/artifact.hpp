#pragma once

// The zero-copy deployable model artifact: a compiled NetworkProgram laid
// out into one flat, relocatable, mmap-able blob. This is the FINN-R /
// FlexNN deployment unit for FLightNNs -- all planning (decomposition,
// ShiftPlan lowering, batch-norm folding) happens offline in
// build_artifact; loading is mmap plus an O(#sections) pointer fixup that
// binds PlanArray views straight into the mapping. The adopting engines
// read those views once, to check each entry and build the layer's int8
// pack in their own memory, and keep no plan: once loaded, nothing reads
// the mapping. N serving replicas of one file each hold their own packs.
//
// Format v2 (DESIGN.md §13 is the normative spec):
//
//   [ArtifactHeader: 128 bytes]
//   [section table: section_count x SectionDesc (24 bytes each)]
//   [sections: each 64-byte aligned, zero-padded between]
//
// All multi-byte fields are little-endian native; offsets are absolute file
// offsets (never pointers), so the blob is position-independent. The header
// carries a checksum (8-lane interleaved FNV-1a-64, see
// artifact_checksum64) over everything after itself. Section order
// is deterministic: the program section first, then each op's arrays in
// role order -- so build_artifact is byte-reproducible for a given program
// (the golden test pins this).
//
// Versioning: `version` is bumped on any layout change; loaders reject
// versions they do not know (no silent forward compat). New op kinds or
// section kinds append enum values, never renumber; retired kinds keep
// their numbers and are rejected. v2 stores each plan entry once, as its
// channel/ky/kx tap plus shift and sign (a linear plan is a 1x1 conv's);
// gains and multipliers are derived when the engine adopts the plan.
//
// The loader treats the file as untrusted input, in two steps. The parser
// checks the container: header (input geometry included), checksum,
// section table, each op record's kind and each role's section (present,
// of its kind and owner, a whole number of elements, float weights as
// large as their dims say). The contents are checked where every program's
// are, whoever built it: QuantizedNetwork::from_program checks every op
// field (inference/network_program.hpp lists its caps) and the adopting
// engine every plan stream (check_plan), then each entry as its int8 pack
// takes it and whether the pack can run the plan (pack_dense): the rungs
// DESIGN.md §13 lists, in order. ArtifactModel maps their
// CheckFailure to kBadProgram, so any violation throws ArtifactError with a
// typed code -- never UB, never an unchecked allocation driven by a hostile
// length.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "inference/network_program.hpp"
#include "inference/quantized_network.hpp"

namespace flightnn::serialize {

// --- Error taxonomy -------------------------------------------------------

enum class ArtifactErrorCode : int {
  kIo = 1,          // open/stat/map/read failure
  kTruncated,       // file shorter than its structures claim
  kBadMagic,        // not an artifact
  kBadVersion,      // artifact from an unknown format revision
  kBadHeader,       // header field out of range / inconsistent
  kBadChecksum,     // payload checksum mismatch
  kBadSection,      // section table entry out of range / misaligned
  kBadProgram,      // op records or plan streams fail validation
};

const char* artifact_error_name(ArtifactErrorCode code);

class ArtifactError : public std::runtime_error {
 public:
  ArtifactError(ArtifactErrorCode code, const std::string& message)
      : std::runtime_error(std::string(artifact_error_name(code)) + ": " +
                           message),
        code_(code) {}
  [[nodiscard]] ArtifactErrorCode code() const { return code_; }

 private:
  ArtifactErrorCode code_;
};

// --- On-disk structures (POD, fixed layout) -------------------------------

inline constexpr char kArtifactMagic[8] = {'F', 'L', 'N', 'A',
                                           'R', 'T', '0', '1'};
inline constexpr std::uint32_t kArtifactVersion = 2;
inline constexpr std::size_t kArtifactAlignment = 64;

struct ArtifactHeader {
  char magic[8] = {};
  std::uint32_t version = 0;
  std::uint32_t header_bytes = 0;  // sizeof(ArtifactHeader)
  std::uint64_t file_bytes = 0;    // total artifact size
  std::uint64_t section_table_offset = 0;
  std::uint32_t section_count = 0;
  std::uint32_t op_count = 0;
  // artifact_checksum64 over [header_bytes, file_bytes) -- everything
  // after the header, section table and padding included.
  std::uint64_t payload_checksum = 0;
  std::int64_t input_c = 0;
  std::int64_t input_h = 0;
  std::int64_t input_w = 0;
  std::uint8_t reserved[56] = {};
};
static_assert(sizeof(ArtifactHeader) == 128, "artifact header layout drift");

// Serialization-stable section kinds (append only, never renumber). Kinds 2
// and 9 held v1's per-entry flat element index and per-filter gain; they
// are retired and the loader rejects them.
enum class SectionKind : std::uint32_t {
  kProgram = 1,  // op_count x OpRecord
  kPlanChannel = 3,
  kPlanKy = 4,
  kPlanKx = 5,
  kPlanShift = 6,
  kPlanSign = 7,
  kPlanFilterBegin = 8,
  kBias = 10,         // float[out_channels]
  kWeights = 11,      // float fallback layers, row-major
  kAffineScale = 12,  // float[channels]
  kAffineBias = 13,   // float[channels]
};

struct SectionDesc {
  std::uint32_t kind = 0;      // SectionKind
  std::uint32_t op_index = 0;  // owning op; 0xffffffff for kProgram
  std::uint64_t offset = 0;    // absolute, kArtifactAlignment-aligned
  std::uint64_t bytes = 0;     // payload bytes (padding not included)
};
static_assert(sizeof(SectionDesc) == 24, "section descriptor layout drift");

// Index of an op's section per role; kAbsentSection = role not present.
inline constexpr std::uint32_t kAbsentSection = 0xffffffffU;

// Section-reference roles inside OpRecord::sec, in serialization order.
enum OpSectionRole : int {
  kRoleChannel = 0,
  kRoleKy,
  kRoleKx,
  kRoleShift,
  kRoleSign,
  kRoleFilterBegin,
  kRoleBias,
  kRoleWeights,
  kRoleAffineScale,
  kRoleAffineBias,
  kOpSectionRoles,
};

struct OpRecord {
  std::uint32_t kind = 0;  // inference::ProgramOpKind
  std::int32_t bits = 0;
  std::int32_t act_bits = 0;
  float slope = 0.0F;
  std::int64_t out_channels = 0;
  std::int64_t in_channels = 0;
  std::int64_t kernel = 0;
  std::int64_t window = 0;
  std::int64_t stride = 0;
  std::int64_t padding = 0;
  std::int64_t term_count = 0;
  std::int64_t main_ops = 0;
  std::int64_t shortcut_ops = 0;
  std::int64_t post_ops = 0;
  std::int32_t k_max = 0;
  std::int32_t e_min = 0;
  std::int32_t e_max = 0;
  std::int32_t flush_to_zero = 0;
  std::int32_t has_shortcut = 0;
  std::uint32_t weight_rank = 0;
  std::int64_t weight_dims[4] = {};
  std::uint32_t sec[kOpSectionRoles] = {};  // section indices per role
  std::uint8_t reserved[32] = {};
};
static_assert(sizeof(OpRecord) == 224, "op record layout drift");

// --- Compiler -------------------------------------------------------------

// Lay the program out into one artifact blob. Deterministic: the same
// program produces the same bytes. Shift ops store their compiled plans
// (never float weights); float fallback ops store their weight tensors.
std::vector<std::uint8_t> build_artifact(
    const inference::NetworkProgram& program);

// Write a built blob to `path` (throws ArtifactError{kIo}): for a caller
// that keeps the blob, e.g. to adopt the program before it writes.
void write_artifact(const std::vector<std::uint8_t>& blob,
                    const std::string& path);

// build_artifact + write_artifact.
void save_artifact(const inference::NetworkProgram& program,
                   const std::string& path);

// Recompute the payload checksum of an in-memory artifact and patch the
// header. Test hook: the corruption-matrix tests mutate structured fields
// and then re-seal the blob so the loader exercises the *structural*
// validation behind the checksum gate, not just the checksum itself.
void rewrite_artifact_checksum(std::vector<std::uint8_t>& blob);

// The artifact's payload checksum primitive (exposed for tests): FNV-1a-64
// computed over eight interleaved byte lanes, folded with the length. The
// striping keeps the multiply chains pipelined so checksumming does not
// dominate cold start; the result is as deterministic and portable as the
// plain byte-serial form.
std::uint64_t artifact_checksum64(const std::uint8_t* data, std::size_t size);

// --- Loader ---------------------------------------------------------------

// Check `data`'s container and reconstitute its NetworkProgram. Plan
// streams become PlanArray *views* into `data` -- zero copies; the caller
// guarantees `data` outlives the returned program (ArtifactModel does).
// Bias/affine/weight tensors are small and are copied out. Throws
// ArtifactError on a malformed container. The program's contents are
// unchecked: hand it to QuantizedNetwork::from_program (as ArtifactModel
// does) or each shift op's plan to the adopting ShiftConv2d constructor
// before anything reads it.
inference::NetworkProgram parse_artifact(const std::uint8_t* data,
                                         std::size_t size);

// A deployable model bound to its backing artifact bytes. Owns the mapping
// (mmap on POSIX, aligned heap elsewhere or via load_buffer) and the
// executable network built from the plans that view it; the network keeps
// only the int8 packs it built at load, so it never reads the mapping
// again. Move-only.
class ArtifactModel {
 public:
  // mmap `path` read-only and fix up. O(#sections) work after the map.
  static ArtifactModel load(const std::string& path);

  // Copy `size` bytes into a 64-byte-aligned heap block and fix up. For
  // callers that already hold the blob (tests, fuzzers, network receive).
  static ArtifactModel load_buffer(const std::uint8_t* data, std::size_t size);

  ArtifactModel(ArtifactModel&&) noexcept = default;
  ArtifactModel& operator=(ArtifactModel&&) noexcept = default;
  ArtifactModel(const ArtifactModel&) = delete;
  ArtifactModel& operator=(const ArtifactModel&) = delete;
  ~ArtifactModel() = default;

  [[nodiscard]] const inference::QuantizedNetwork& network() const {
    return network_;
  }
  [[nodiscard]] std::int64_t input_c() const { return input_c_; }
  [[nodiscard]] std::int64_t input_h() const { return input_h_; }
  [[nodiscard]] std::int64_t input_w() const { return input_w_; }

  // Backing bytes: the artifact as loaded.
  [[nodiscard]] const std::uint8_t* data() const { return mapping_->data(); }
  [[nodiscard]] std::size_t size() const { return mapping_->size(); }

 private:
  // Read-only byte mapping; unmaps / frees on destruction.
  class Mapping {
   public:
    Mapping(const std::uint8_t* data, std::size_t size, bool mmapped)
        : data_(data), size_(size), mmapped_(mmapped) {}
    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;
    ~Mapping();
    [[nodiscard]] const std::uint8_t* data() const { return data_; }
    [[nodiscard]] std::size_t size() const { return size_; }

   private:
    const std::uint8_t* data_;
    std::size_t size_;
    bool mmapped_;
  };

  ArtifactModel(std::unique_ptr<Mapping> mapping,
                inference::NetworkProgram program);

  std::unique_ptr<Mapping> mapping_;
  inference::QuantizedNetwork network_;
  std::int64_t input_c_ = 0;
  std::int64_t input_h_ = 0;
  std::int64_t input_w_ = 0;
};

}  // namespace flightnn::serialize
