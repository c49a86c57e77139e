// The decoder half of the DeepSZ pipeline: reloads a compressed model into a
// network. The four-step pipeline of Figure 1 itself — (1) network pruning,
// (2) error bound assessment, (3) error-bound configuration optimization,
// (4) compressed model generation — runs through compress/session.h, with
// the "deepsz" strategy from compress/registry.h.
#pragma once

#include <cstdint>
#include <span>

#include "nn/network.h"

namespace deepsz::core {

/// Decodes a compressed model and loads it into `net`. Repeated loads are
/// idempotent: the network ends up in the same state no matter how many
/// times (or into what prior state) the model is loaded.
void load_compressed_model(std::span<const std::uint8_t> bytes,
                           nn::Network& net);

}  // namespace deepsz::core
