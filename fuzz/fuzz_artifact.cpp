// Fuzz harness for the deployment-artifact loader (serialize/artifact).
// The artifact is the format that crosses trust boundaries -- a serving
// host maps whatever file it is pointed at -- so the loader must treat
// every byte as hostile. The harness feeds raw bytes to the full
// load_buffer path (the header, the checksum, each op record's kind and
// array counts against the bytes left, in the parser; every op field in
// from_program; every int8 pack at engine adoption; the load walk's shape
// flow, census and memory rows); a typed ArtifactError or CheckFailure is
// the expected outcome for malformed input. Every input that parses is
// loaded, whatever geometry it claims: the load itself must stay bounded.
// Inputs the loader *accepts* are executed when small: the network runs one
// zero image end to end, so any plan the checks let through is also proven
// safe to execute under the sanitizers (the kernels index the pack's words
// unchecked by design).

#include <cstdint>
#include <vector>

#include "inference/network_program.hpp"
#include "serialize/artifact.hpp"
#include "support/check.hpp"
#include "tensor/tensor.hpp"

#include "fuzz_driver.hpp"

namespace {

using flightnn::inference::NetworkProgram;
using flightnn::inference::ProgramOp;
using flightnn::serialize::ArtifactError;
using flightnn::serialize::ArtifactModel;

// Accepted artifacts are attacker-shaped, so cap the work one image run
// may demand: geometry small enough that activations stay in the kilobyte
// range. Anything bigger is loaded but not run.
bool cheap_to_run(const NetworkProgram& program) {
  if (program.ops.size() > 256) return false;
  if (program.input_c > 64 || program.input_h > 64 || program.input_w > 64 ||
      program.input_c * program.input_h * program.input_w > 4096) {
    return false;
  }
  for (const ProgramOp& op : program.ops) {
    if (op.out_channels > 512 || op.in_channels > 512) return false;
    if (op.kernel > 8 || op.window > 16) return false;
    if (op.padding > 8 || op.stride > 16) return false;
    if (op.plan.entries() > (1 << 16)) return false;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Expected rejections must throw, not abort, regardless of environment.
  flightnn::support::set_check_policy(flightnn::support::CheckPolicy::kThrow);
  try {
    const bool run =
        cheap_to_run(flightnn::serialize::parse_artifact(data, size));
    const ArtifactModel model = ArtifactModel::load_buffer(data, size);
    if (!run) return 0;
    const flightnn::tensor::Tensor image(flightnn::tensor::Shape{
        model.input_c(), model.input_h(), model.input_w()});
    try {
      (void)model.network().run(image);
    } catch (const flightnn::support::CheckFailure&) {
      // A loaded artifact's biases and affine scales may still be
      // non-finite, and a quantizer refuses the activation they make;
      // rejecting is fine, only sanitizer findings count.
    }
  } catch (const ArtifactError&) {
    // clean typed rejection -- the expected outcome for hostile bytes
  } catch (const flightnn::support::CheckFailure&) {
    // contract check below the loader
  }
  return 0;
}
