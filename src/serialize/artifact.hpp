#pragma once

// The deployable model artifact: a compiled NetworkProgram laid out into
// one flat, relocatable, mmap-able blob. This is the FINN-R / FlexNN
// deployment unit for FLightNNs -- all planning (quantization, lowering to
// the int8 pack, batch-norm folding) happens offline in build_artifact, and
// the file stores each shift layer's weights as the bytes the kernels read:
// its live-filter list, its int8 words and its negated bytes. Loading is
// mmap, the checksum, a section table walk, and one copy of each section
// into the program; each adopting engine then checks its plan, derives the
// rest and re-lays the words in the kernels' blocked order in one pass
// over them (adopt_plan). Once loaded, nothing reads the mapping.
//
// Format v3 (DESIGN.md §13 is the normative spec):
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
// their numbers and are rejected. v3 stores a shift op's int8 pack (kinds
// 14-16) where v2 stored six per-entry streams (kinds 3-8), and its op
// record carries the plan's entry count beside the term count; the
// correction, the census's per-tap counts and each filter's k_i are derived
// when the engine adopts the plan.
//
// The loader treats the file as untrusted input, in two steps. The parser
// checks the container: header (input geometry included), checksum,
// section table, each op record's kind and each role's section (present,
// of its kind and owner, a whole number of elements, float weights as
// large as their dims say). The contents are checked where every program's
// are, whoever built it: QuantizedNetwork::from_program checks every op
// field (inference/network_program.hpp lists its caps) and the adopting
// engine every plan (adopt_plan: the live list, the negated bytes, the word
// count, the padding lanes, each weight's peel against k_max, the int32
// bound and the stored counts): the rungs DESIGN.md §13 lists, in order.
// ArtifactModel maps their CheckFailure to kBadProgram, so any violation
// throws ArtifactError with a typed code -- never UB, never an allocation
// the file's own bytes do not pay for.

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
  kBadProgram,      // op records or int8 packs fail validation
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
inline constexpr std::uint32_t kArtifactVersion = 3;
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

// Serialization-stable section kinds (append only, never renumber). Kinds
// 2-9 are retired and the loader rejects them: v1's per-entry flat element
// index (2) and per-filter gain (9), and v2's per-entry channel, ky, kx,
// shift and sign streams and filter prefix (3-8).
enum class SectionKind : std::uint32_t {
  kProgram = 1,       // op_count x OpRecord
  kBias = 10,         // float[out_channels]
  kWeights = 11,      // float fallback layers, row-major
  kAffineScale = 12,  // float[channels]
  kAffineBias = 13,   // float[channels]
  kPackLive = 14,     // int32 per live filter (ShiftPlan::live)
  kPackWords = 15,    // int32 x taps per live filter (ShiftPlan::words)
  kPackNegated = 16,  // uint8 per live filter (ShiftPlan::negated)
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
  kRoleLive = 0,
  kRoleWords,
  kRoleNegated,
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
  std::int64_t entries = 0;  // ShiftPlan::entry_count
  std::int64_t main_ops = 0;
  std::int64_t shortcut_ops = 0;
  std::int64_t post_ops = 0;
  std::int32_t k_max = 0;  // ShiftPlan::k_max
  std::int32_t e_min = 0;
  std::int32_t e_max = 0;
  std::int32_t flush_to_zero = 0;
  std::int32_t has_shortcut = 0;
  std::uint32_t weight_rank = 0;
  std::int64_t weight_dims[4] = {};
  std::uint32_t sec[kOpSectionRoles] = {};  // section indices per role
  std::uint8_t reserved[36] = {};
};
static_assert(sizeof(OpRecord) == 224, "op record layout drift");

// --- Compiler -------------------------------------------------------------

// Lay the program out into one artifact blob. Deterministic: the same
// program produces the same bytes. Shift ops store their int8 packs (never
// float weights); float fallback ops store their weight tensors.
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

// Check `data`'s container and reconstitute its NetworkProgram, copying
// every section it reads (the int8 packs as well as the float tensors), so
// the program does not refer to `data`. Throws ArtifactError on a malformed
// container. The program's contents are unchecked: hand it to
// QuantizedNetwork::from_program (as ArtifactModel does) or each shift op's
// plan to the adopting ShiftConv2d constructor before anything reads it.
inference::NetworkProgram parse_artifact(const std::uint8_t* data,
                                         std::size_t size);

// A deployable model bound to its backing artifact bytes. Owns the mapping
// (mmap on POSIX, aligned heap elsewhere or via load_buffer) and the
// executable network built from it; the network keeps its own copy of the
// int8 packs, so it never reads the mapping again, and `load` drops the
// mapping's pages from the resident set once the network is built. Move-only.
class ArtifactModel {
 public:
  // mmap `path` read-only, check it and adopt its program.
  static ArtifactModel load(const std::string& path);

  // Copy `size` bytes into a 64-byte-aligned heap block and load them. For
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

  // Backing bytes: the artifact as loaded. After `load`, a read faults the
  // file's pages back in.
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
