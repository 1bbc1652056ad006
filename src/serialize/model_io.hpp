#pragma once

// Model persistence: checkpoints (`save_state` / `load_state`) hold every
// trainable parameter, batch-norm running statistics, and FLightNN
// thresholds, written in layer-traversal order. The architecture itself is
// code (the builders in models/), so a checkpoint restores state into a
// freshly built model of the same shape -- mismatches are detected and
// rejected. The deployment format is the compiled artifact
// (serialize/artifact.hpp), whose shift plans are the only stored form of
// shift weights.

#include <cstdint>
#include <string>
#include <vector>

#include "nn/sequential.hpp"

namespace flightnn::serialize {

// --- Checkpoints ---------------------------------------------------------------

// Serialize model state to a buffer / file. Includes parameters, batch-norm
// running stats and FLightNN thresholds.
std::vector<std::uint8_t> save_state(nn::Sequential& model);
void save_state(nn::Sequential& model, const std::string& path);

// Restore state saved by save_state into a structurally identical model.
// Throws std::runtime_error on magic/shape mismatch.
void load_state(nn::Sequential& model, const std::vector<std::uint8_t>& buffer);
void load_state(nn::Sequential& model, const std::string& path);

}  // namespace flightnn::serialize
