// Delta-versioned containers for fleet rollout: encode a fine-tuned
// successor model as per-layer deltas against a named base container, so a
// rollout ships the small difference instead of the full model.
//
// The delta container is DSZC wire version 4 (see docs/container_format.md):
// the header names the base (base_id + whole-file base_crc) and every layer
// record carries a kind tag:
//
//   full   self-contained v3-style record (layer absent from the base, or
//          its shape changed)
//   same   zero-byte reference: data/index/bias bit-identical to the base
//          layer; the record stores only CRC pins of the base's decoded
//          arrays
//   delta  residual stream through any registered FloatCodec plus a
//          losslessly-compressed XOR correction stream that restores the
//          target's exact bit patterns, and a sparsity-mask delta for the
//          index array
//
// Reconstruction is bit-exact by construction: the encoder closes the loop
// (decodes its own residual stream) and stores corr = bits(target) XOR
// bits(base + decoded_residual), so whatever the lossy residual codec did —
// including on NaN/−0.0 patterns — the XOR restores the target exactly, and
// the record's reconstruction CRC pins seal it against forged streams.
//
// On a realistic fine-tune pair re-encoded at the same error bounds, most
// decoded values are bit-identical (the quantizer absorbs sub-quantum
// drift): the residual is mostly exact zeros, the correction stream is
// mostly zero bytes, and masked retraining keeps the sparsity pattern fixed
// — all three streams compress to a small fraction of the full container.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/model_codec.h"

namespace deepsz::core {

/// Encode-side knobs for diffing two containers.
struct DeltaOptions {
  /// Registry FloatCodec for the residual streams ("sz", "zfp", ...).
  std::string residual_codec = "sz";
  /// Registry ByteCodec for correction streams, mask deltas, and full index
  /// streams emitted by delta records.
  std::string lossless_codec = "zstd";
  /// Error bound for residual streams; 0 = each layer's own target-side
  /// bound (bit-exactness never depends on this — only the size split
  /// between residual and correction stream does).
  double residual_eb = 0.0;
  /// Recorded in the header as the base's identity: how consumers locate
  /// the base (a file path for the tool, a served-model name for the
  /// repository's auto-detect, which matches by base_crc anyway).
  std::string base_id;
  /// Encode layers across ThreadPool::global().
  bool parallel = true;
};

/// Per-layer diff outcome.
struct DeltaLayerStats {
  std::string layer;
  LayerKind kind = LayerKind::kFull;
  MaskMode mask_mode = MaskMode::kSameAsBase;
  std::size_t data_bytes = 0;    // residual stream (or full data stream)
  std::size_t index_bytes = 0;   // mask delta / full index stream
  std::size_t corr_bytes = 0;    // bit-correction stream
  std::size_t target_bytes = 0;  // the layer's streams in the full target

  std::size_t payload_bytes() const {
    return data_bytes + index_bytes + corr_bytes;
  }
};

/// An encoded delta container plus its bytes-shipped accounting.
struct DeltaModel {
  std::vector<std::uint8_t> bytes;
  std::vector<DeltaLayerStats> stats;
  /// Size of the full target container the delta replaces on the wire.
  std::size_t target_container_bytes = 0;

  std::size_t count(LayerKind kind) const;
  /// Full-target bytes over delta bytes: how many times fewer bytes a
  /// rollout ships.
  double shipped_ratio() const {
    return bytes.empty() ? 0.0
                         : static_cast<double>(target_container_bytes) /
                               static_cast<double>(bytes.size());
  }
};

/// Diffs `target_container` (a full v2/v3 container) against `base`, which
/// must be fully resolved (a chained base is allowed: attach its own base
/// via set_base first). The emitted container's base_crc pins
/// base.container_crc(), and it ends with the seekable DSZX footer, which
/// covers every record kind. Throws std::invalid_argument when the target is
/// itself a delta container or the base chain is unresolved, and
/// codec::UnknownCodec / codec::BadOptions on an unresolvable codec spec.
DeltaModel encode_delta_model(const ContainerReader& base,
                              std::span<const std::uint8_t> target_container,
                              const DeltaOptions& options = {});

/// Convenience overload for a non-delta base container.
DeltaModel encode_delta_model(std::span<const std::uint8_t> base_container,
                              std::span<const std::uint8_t> target_container,
                              const DeltaOptions& options = {});

}  // namespace deepsz::core
