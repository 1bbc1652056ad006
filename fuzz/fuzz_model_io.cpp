// Fuzz harness for the model deserialization boundary (serialize/model_io):
// load_state parses the training-checkpoint format from fully hostile bytes,
// replayed against a small real model so parameter/batch-norm/threshold
// counts are all exercised. (The deployment artifact has its own harness,
// fuzz_artifact.)
//
// Typed rejections (std::runtime_error from the parsers, CheckFailure from
// deeper contract checks) are the *expected* outcome for malformed input;
// only sanitizer findings and uncaught exception types count as crashes.

#include <memory>
#include <stdexcept>
#include <vector>

#include "models/networks.hpp"
#include "nn/sequential.hpp"
#include "serialize/model_io.hpp"
#include "support/check.hpp"
#include "tensor/tensor.hpp"

#include "fuzz_driver.hpp"

namespace {

// The checkpoint target: a tiny real network, built once. load_state only
// mutates tensor contents (never shapes), so reusing it across inputs is
// safe and keeps per-input cost flat.
flightnn::nn::Sequential& checkpoint_model() {
  static std::unique_ptr<flightnn::nn::Sequential> model = [] {
    flightnn::models::BuildOptions build;
    build.classes = 10;
    build.width_scale = 0.125F;
    build.seed = 7;
    return flightnn::models::build_network(flightnn::models::table1_network(1),
                                           build);
  }();
  return *model;
}

void fuzz_load_state(const std::vector<std::uint8_t>& buffer) {
  try {
    flightnn::serialize::load_state(checkpoint_model(), buffer);
  } catch (const std::runtime_error&) {
    // clean rejection (shape/count mismatch, truncation, bad magic)
  } catch (const flightnn::support::CheckFailure&) {
    // contract check below the parser (e.g. tensor shape validation)
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Expected rejections must throw, not abort, regardless of environment.
  flightnn::support::set_check_policy(flightnn::support::CheckPolicy::kThrow);
  const std::vector<std::uint8_t> buffer(data, data + size);
  fuzz_load_state(buffer);
  return 0;
}
