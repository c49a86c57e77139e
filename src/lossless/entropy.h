// Canonical Huffman entropy coding, shared by every entropy stage in the
// repository: the SZ quantization-code stream, the GzipLike DEFLATE-style
// block coder, and the ZstdLike sequence coder.
//
// Codes are canonical (assigned by (length, symbol) order), length-limited via
// Kraft-sum repair, and written bit-reversed so that a bit-serial canonical
// decoder sees the most significant code bit first while the underlying
// BitWriter stays LSB-first.
//
// Decoding is table-driven: one peek of the next kTableBits bits indexes a
// primary table whose entry holds the symbol and its code length, so a code
// of up to kTableBits bits costs one lookup and one consume. Longer codes
// (and invalid bit patterns) miss the table and fall back to the canonical
// walk. Tables whose Kraft sum exceeds 1 are rejected when they are built;
// every other table is prefix-free, so lookup and walk agree on every input.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitstream.h"

namespace deepsz::lossless {

/// Maximum code length supported by the canonical coder.
inline constexpr int kMaxCodeLen = 24;

/// Computes length-limited Huffman code lengths (0 = symbol absent) for the
/// given symbol frequencies. Lengths never exceed `max_len`.
std::vector<int> build_code_lengths(std::span<const std::uint64_t> freq,
                                    int max_len = kMaxCodeLen);

/// Encodes symbols with a canonical Huffman code built from a frequency table.
class HuffmanEncoder {
 public:
  /// Builds the code book. Symbols with zero frequency get no code and must
  /// not be passed to encode().
  void init(std::span<const std::uint64_t> freq, int max_len = kMaxCodeLen);

  /// Serializes the code book (sparse symbol/length list) into `bw`.
  void write_table(util::BitWriter& bw) const;

  /// Writes the code for `sym`.
  void encode(util::BitWriter& bw, std::uint32_t sym) const {
    bw.write_bits(codes_[sym], lengths_[sym]);
  }

  /// Code length in bits for `sym` (0 if absent). Used for cost estimation.
  int length(std::uint32_t sym) const { return lengths_[sym]; }

  std::size_t alphabet_size() const { return lengths_.size(); }

 private:
  std::vector<std::uint32_t> codes_;  // bit-reversed canonical codes
  std::vector<int> lengths_;
};

/// Decodes a canonical Huffman stream produced by HuffmanEncoder.
class HuffmanDecoder {
 public:
  /// Width in bits of the primary decode table (never wider than the
  /// longest code).
  static constexpr int kTableBits = 11;

  /// Reads the code book serialized by HuffmanEncoder::write_table.
  void read_table(util::BitReader& br);

  /// Builds decoding structures directly from code lengths (for coders whose
  /// table is transmitted out of band). Throws std::runtime_error when a
  /// length is out of range or the code is over-subscribed (Kraft sum > 1).
  void init_from_lengths(std::span<const int> lengths);

  /// Decodes one symbol. Throws std::runtime_error on an invalid code.
  std::uint32_t decode(util::BitReader& br) const {
    const std::uint32_t entry =
        table_[static_cast<std::size_t>(br.peek_bits(table_bits_))];
    if (entry == 0) return decode_slow(br);
    br.consume(static_cast<int>(entry & kLenMask));
    return entry >> kLenBits;
  }

  std::size_t alphabet_size() const { return alphabet_; }

 private:
  static constexpr int kLenBits = 5;
  static constexpr std::uint32_t kLenMask = (1u << kLenBits) - 1;

  // Canonical walk for codes longer than the primary table and for invalid
  // codes (which it consumes max_len_ bits of, then throws).
  std::uint32_t decode_slow(util::BitReader& br) const;

  std::size_t alphabet_ = 0;
  int max_len_ = 0;
  int table_bits_ = 0;
  // Primary table indexed by the next table_bits_ stream bits: entry =
  // (symbol << kLenBits) | code length, 0 = no code of <= table_bits_ bits
  // matches. One zero entry until a table is built, so decode() on an
  // empty decoder reaches decode_slow() and throws.
  std::vector<std::uint32_t> table_ = std::vector<std::uint32_t>(1);
  // Canonical decoding tables indexed by code length.
  std::vector<std::uint32_t> first_code_;   // first canonical code of length L
  std::vector<std::uint32_t> offset_;       // index into sorted_symbols_
  std::vector<std::uint32_t> count_;        // number of codes of length L
  std::vector<std::uint32_t> sorted_symbols_;
};

/// Reverses the low `nbits` bits of `v`.
std::uint32_t reverse_bits(std::uint32_t v, int nbits);

/// Self-contained [table][codes] framing of one symbol stream, built from
/// the stream's own frequencies — the framing shared by Deep Compression's
/// value/position streams (baselines) and the "huffman" byte codec.
std::vector<std::uint8_t> huffman_encode_symbols(
    std::span<const std::uint32_t> symbols, std::size_t alphabet);

/// Decodes `count` symbols written by huffman_encode_symbols. Throws
/// std::runtime_error when the embedded table declares an alphabet beyond
/// `max_alphabet` (decoded symbols are always below the declared alphabet,
/// so the cap bounds them too) or when a code is invalid.
std::vector<std::uint32_t> huffman_decode_symbols(
    std::span<const std::uint8_t> bytes, std::size_t count,
    std::size_t max_alphabet);

}  // namespace deepsz::lossless
