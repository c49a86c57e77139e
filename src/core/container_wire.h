// Wire constants shared by the DSZC container family, plus the one footer
// writer. Only the two encoders (model_codec.cpp, delta_codec.cpp) and the
// reader include this; everything else goes through the public model_codec.h
// API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/model_codec.h"

namespace deepsz::core::wire {

inline constexpr std::uint32_t kMagic = 0x435a5344;  // "DSZC"
// Version 2: implicit SZ data stream + lossless index frame per layer.
// Version 3: per-stream registry codec specs (container v2 of the redesign).
// Version 4: delta container — header names a base container (base_id +
//            base_crc) and each record carries a full|same|delta kind tag.
inline constexpr std::uint32_t kVersionLegacy = 2;
inline constexpr std::uint32_t kVersionCurrent = 3;
inline constexpr std::uint32_t kVersionDelta = 4;

// Seekable-index footer: [body][crc32(body) u32][body_len u64][magic u32].
inline constexpr std::uint32_t kFooterMagic = 0x585a5344;  // "DSZX"
inline constexpr std::size_t kTrailerBytes = 16;
inline constexpr std::size_t kHeaderBytes = 12;  // magic + version + count
// The v4 header additionally carries base_id (u64-length string) + base_crc;
// its end is computed while parsing, kHeaderBytes stays the fixed prefix.

/// Appends the seekable-index footer for `directory` to `out`: the entry
/// count, one entry per layer (for kVersionDelta also each entry's kind,
/// mask mode, correction stream and CRC pins), then the trailer. Every
/// container a current encoder writes ends with it.
void put_footer(std::vector<std::uint8_t>& out,
                const std::vector<ContainerEntry>& directory,
                std::uint32_t version);

}  // namespace deepsz::core::wire
