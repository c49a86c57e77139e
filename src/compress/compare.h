// Head-to-head strategy comparison on one network — the shape of the
// paper's Tables 3-5 (ratio, accuracy, encode/decode time) as a reusable
// harness: prune once, run every strategy's session on the same pruned
// layers, and verify each emitted container actually serves (ModelStore +
// InferenceSession, warm requests doing zero codec work).
#pragma once

#include <string>
#include <vector>

#include "compress/session.h"

namespace deepsz::compress {

struct CompareOptions {
  /// Strategy specs to compare. Empty compares every registered strategy
  /// under its defaults.
  std::vector<std::string> specs;
  /// Shared session configuration (prune runs once, before any strategy).
  CompressSpec spec;
  /// When false the network is adopted as already pruned (masks installed)
  /// and spec.prune is ignored.
  bool prune_first = true;
  /// Batch size of the serving-verification requests.
  std::int64_t serve_batch = 4;
};

/// One strategy's line in the comparison table.
struct CompareRow {
  std::string spec;              // the spec as requested, e.g. "deepsz"
  std::string strategy;          // resolved registry name
  std::size_t payload_bytes = 0;
  double ratio = 0.0;            // dense fc bytes / payload
  double top1_pruned = 0.0;      // shared baseline (after pruning)
  double top1_decoded = 0.0;     // after container decode + reload
  double encode_seconds = 0.0;   // Assess+Optimize+Encode (Fig. 7a)
  double decode_ms = 0.0;        // full container decode (Fig. 7b)
  bool serve_ok = false;         // served warm via ModelStore, no cache miss
  std::string error;             // non-empty when the strategy failed
};

/// Compares the strategies on `net`. The network is pruned once (or adopted
/// pre-pruned) and left holding the pruned weights on return; every row is
/// produced even when a strategy fails — including an unresolvable spec —
/// with the failure recorded in CompareRow::error. Throws only when pruning
/// itself fails (no masked fc-layers to compare on).
std::vector<CompareRow> compare_strategies(
    nn::Network& net, const nn::Tensor& train_images,
    const std::vector<int>& train_labels, const nn::Tensor& test_images,
    const std::vector<int>& test_labels, const CompareOptions& options = {});

}  // namespace deepsz::compress
