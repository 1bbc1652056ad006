#pragma once

// The deployable model artifact: a compiled NetworkProgram written as one
// checked byte stream. This is the FINN-R / FlexNN deployment unit for
// FLightNNs -- all planning (quantization, lowering to the int8 pack,
// batch-norm folding) happens offline in build_artifact, and the file stores
// each shift layer's weights as the bytes the kernels read: its live-filter
// list, its int8 words and its negated bytes. Loading is mmap, the checksum
// and one read of the stream, which copies each array into the program;
// each adopting engine then checks its plan, derives the rest and re-lays
// the words in the kernels' blocked order in one pass over them
// (adopt_plan). Once loaded, nothing reads the mapping.
//
// Format v5 (DESIGN.md §13 is the normative spec):
//
//   [ArtifactHeader: 56 bytes]
//   op_count x [OpRecord: 168 bytes][the op's arrays]
//
// An op's arrays follow its record in an order its kind fixes -- shift ops:
// live (int32), words (int32), negated (uint8), bias (float); affine ops:
// scale, bias (float) -- each as long as its record says; other kinds have
// none. Every field is little-endian native and no structure has padding or
// reserved bytes (static_asserts below hold each struct's size to the sum
// of its fields'); the parser memcpys each header, record and array out, so
// a buffer at any alignment parses. The header carries a checksum (8-lane
// interleaved FNV-1a-64, see artifact_checksum64) over everything after
// itself. build_artifact is byte-reproducible for a given program (the
// golden test pins this).
//
// Versioning: `version` is bumped on any layout change; loaders reject
// versions they do not know (no silent forward compat: a v4 or older file is
// refused). New op kinds append enum values, never renumber; v5 retired the
// float conv and linear kinds (3 and 10), which the parser refuses.
//
// The loader treats the file as untrusted input, in two steps. The parser
// checks the stream: the header (input geometry included), the checksum,
// each record's op kind, every count against the bytes left before it
// allocates, and nothing after the last op. The contents are checked where
// every program's are, whoever built it: QuantizedNetwork::from_program
// checks every op field (inference/network_program.hpp lists its caps) and
// the adopting engine every plan (adopt_plan: the live list, the negated
// bytes, the word count, the padding lanes, each weight's peel against
// k_max, the int32 bound and the stored counts): the rungs DESIGN.md §13
// lists, in order. ArtifactModel maps their CheckFailure to kBadProgram, so
// any violation throws ArtifactError with a typed code -- never UB, never an
// allocation the file's own bytes do not pay for.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
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
inline constexpr std::uint32_t kArtifactVersion = 5;

struct ArtifactHeader {
  char magic[8] = {};
  std::uint32_t version = 0;
  std::uint32_t op_count = 0;
  std::uint64_t file_bytes = 0;  // total artifact size
  // artifact_checksum64 over [sizeof(ArtifactHeader), file_bytes): every
  // record and array.
  std::uint64_t payload_checksum = 0;
  std::int64_t input_c = 0;
  std::int64_t input_h = 0;
  std::int64_t input_w = 0;
};
static_assert(sizeof(ArtifactHeader) == 56, "artifact header layout drift");
// No padding: build_artifact writes the struct's bytes as they are.
static_assert(sizeof(ArtifactHeader) ==
                  sizeof(ArtifactHeader::magic) +
                      sizeof(ArtifactHeader::version) +
                      sizeof(ArtifactHeader::op_count) +
                      sizeof(ArtifactHeader::file_bytes) +
                      sizeof(ArtifactHeader::payload_checksum) +
                      sizeof(ArtifactHeader::input_c) +
                      sizeof(ArtifactHeader::input_h) +
                      sizeof(ArtifactHeader::input_w),
              "artifact header has padding");

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
  // 8 bytes wide, so the counts below start 8-aligned with no hole before
  // them.
  std::int64_t has_shortcut = 0;
  // Element counts of the arrays after the record.
  std::uint64_t live_count = 0;     // shift: int32 per live filter
  std::uint64_t word_count = 0;     // shift: int32 words
  std::uint64_t negated_count = 0;  // shift: uint8 per live filter
  std::uint64_t scale_count = 0;    // affine: float per channel
  std::uint64_t bias_count = 0;     // shift, affine: float
};
static_assert(sizeof(OpRecord) == 168, "op record layout drift");
// No padding: build_artifact writes the struct's bytes as they are, so a
// hole would put indeterminate bytes in the file.
static_assert(sizeof(OpRecord) ==
                  sizeof(OpRecord::kind) + sizeof(OpRecord::bits) +
                      sizeof(OpRecord::act_bits) + sizeof(OpRecord::slope) +
                      sizeof(OpRecord::out_channels) +
                      sizeof(OpRecord::in_channels) +
                      sizeof(OpRecord::kernel) + sizeof(OpRecord::window) +
                      sizeof(OpRecord::stride) + sizeof(OpRecord::padding) +
                      sizeof(OpRecord::term_count) +
                      sizeof(OpRecord::entries) + sizeof(OpRecord::main_ops) +
                      sizeof(OpRecord::shortcut_ops) +
                      sizeof(OpRecord::post_ops) + sizeof(OpRecord::k_max) +
                      sizeof(OpRecord::e_min) + sizeof(OpRecord::e_max) +
                      sizeof(OpRecord::flush_to_zero) +
                      sizeof(OpRecord::has_shortcut) +
                      sizeof(OpRecord::live_count) +
                      sizeof(OpRecord::word_count) +
                      sizeof(OpRecord::negated_count) +
                      sizeof(OpRecord::scale_count) +
                      sizeof(OpRecord::bias_count),
              "op record has padding");

// --- Compiler -------------------------------------------------------------

// Lay the program out into one artifact blob. Deterministic: the same
// program produces the same bytes. Shift ops store their int8 packs, never
// float weights.
std::vector<std::uint8_t> build_artifact(
    const inference::NetworkProgram& program);

// The bytes build_artifact writes for `op`, its record and its arrays, when
// the arrays its kind does not store are empty (as compile_program leaves
// them; otherwise an overestimate). Op i's record sits at
// sizeof(ArtifactHeader) plus the bytes of ops 0..i-1.
std::size_t artifact_op_bytes(const inference::ProgramOp& op);

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

// Check `data`'s stream and reconstitute its NetworkProgram, copying every
// array it reads (the int8 packs as well as the float arrays), so the
// program does not refer to `data`, which may sit at any alignment. Throws
// ArtifactError on a malformed stream. The program's contents are
// unchecked: hand it to
// QuantizedNetwork::from_program (as ArtifactModel does) or each shift op's
// plan to the adopting ShiftConv2d constructor before anything reads it.
inference::NetworkProgram parse_artifact(const std::uint8_t* data,
                                         std::size_t size);

// A deployable model bound to its backing artifact bytes. Owns the mapping
// (mmap on POSIX, a heap copy elsewhere or via load_buffer) and the
// executable network built from it; the network keeps its own copy of the
// int8 packs, so it never reads the mapping again, and `load` drops the
// mapping's pages from the resident set once the network is built. Move-only.
class ArtifactModel {
 public:
  // mmap `path` read-only, check it and adopt its program.
  static ArtifactModel load(const std::string& path);

  // Copy `size` bytes to the heap and load them. For callers that already
  // hold the blob (tests, fuzzers, network receive).
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
  // The artifact's bytes: the file's read-only mapping, unmapped on
  // destruction, or a heap copy.
  class Mapping {
   public:
    Mapping(const std::uint8_t* mapped, std::size_t size)
        : data_(mapped), size_(size), mapped_(true) {}
    explicit Mapping(std::vector<std::uint8_t> copy)
        : copy_(std::move(copy)), data_(copy_.data()), size_(copy_.size()) {}
    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;
    ~Mapping();
    [[nodiscard]] const std::uint8_t* data() const { return data_; }
    [[nodiscard]] std::size_t size() const { return size_; }

   private:
    std::vector<std::uint8_t> copy_;
    const std::uint8_t* data_;
    std::size_t size_;
    bool mapped_ = false;
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
