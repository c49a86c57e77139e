// Shared test helpers for the DSZX footer index. Every encoder appends the
// footer, so the indexless containers the record-scan reader still serves
// (legacy files, and v3/v4 files written before the footer was mandatory)
// are made by cutting it off an encoded container: the records before it
// are byte-for-byte what an indexless writer produced.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/container_wire.h"
#include "core/model_codec.h"

namespace deepsz::core {

/// The container without its footer (records only). Throws
/// std::invalid_argument when `bytes` carries no footer.
inline std::vector<std::uint8_t> strip_footer(
    std::vector<std::uint8_t> bytes) {
  if (bytes.size() < wire::kHeaderBytes + wire::kTrailerBytes) {
    throw std::invalid_argument("strip_footer: container too short");
  }
  // Trailer: [crc32(body) u32][body_len u64][magic u32].
  std::uint64_t body_len = 0;
  std::uint32_t magic = 0;
  std::memcpy(&body_len, bytes.data() + bytes.size() - 12, sizeof body_len);
  std::memcpy(&magic, bytes.data() + bytes.size() - 4, sizeof magic);
  if (magic != wire::kFooterMagic ||
      body_len > bytes.size() - wire::kHeaderBytes - wire::kTrailerBytes) {
    throw std::invalid_argument("strip_footer: no footer to strip");
  }
  bytes.resize(bytes.size() - wire::kTrailerBytes -
               static_cast<std::size_t>(body_len));
  return bytes;
}

/// Replaces the container's footer with a correctly signed one over
/// `entries`, so a test's forged directory reaches the semantic checks
/// behind the footer checksum.
inline std::vector<std::uint8_t> resign_footer(
    std::vector<std::uint8_t> bytes,
    const std::vector<ContainerEntry>& entries) {
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof version);
  auto out = strip_footer(std::move(bytes));
  wire::put_footer(out, entries, version);
  return out;
}

}  // namespace deepsz::core
