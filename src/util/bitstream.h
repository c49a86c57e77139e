// LSB-first bit-level writer/reader used by every entropy coder in the repo
// (Huffman stages of SZ / GzipLike / ZstdLike, ZFP bit-plane coder).
//
// Bit order follows the DEFLATE convention: the first bit written occupies the
// least-significant bit of the first byte. Multi-bit fields are written with
// their least-significant bit first, so write_bits(v, n) followed by
// read_bits(n) round-trips any v < 2^n.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace deepsz::util {

/// Accumulates bits into a growing byte vector.
class BitWriter {
 public:
  /// Writes the low `nbits` bits of `value`, LSB first. nbits in [0, 57].
  void write_bits(std::uint64_t value, int nbits);

  /// Writes a single bit.
  void write_bit(std::uint32_t bit) { write_bits(bit & 1u, 1); }

  /// Flushes any partial byte (zero-padded) and returns the buffer.
  std::vector<std::uint8_t> finish();

  /// Number of whole bits written so far.
  std::size_t bit_count() const { return bytes_.size() * 8 + nbuf_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t buf_ = 0;  // pending bits, LSB = oldest
  int nbuf_ = 0;           // number of pending bits in buf_
};

/// Reads bits back in the order BitWriter wrote them.
///
/// Bits are buffered 64 at a time, so table-driven decoders can look at the
/// next few bits (peek_bits) and then drop only the ones a code used
/// (consume). Past the end of the data every bit reads as zero and bit_pos()
/// keeps advancing; callers detect truncation by comparing bit_pos() with the
/// payload size.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Returns the next `nbits` bits (LSB first) without consuming them.
  /// nbits in [0, 57].
  std::uint64_t peek_bits(int nbits) {
    assert(nbits >= 0 && nbits <= 57);
    if (nbuf_ < nbits) refill();
    return buf_ & ((1ull << nbits) - 1);
  }

  /// Drops `nbits` bits. nbits must not exceed the width of the peek_bits
  /// call that preceded it.
  void consume(int nbits) {
    assert(nbits <= nbuf_ || byte_pos_ == data_.size());
    buf_ >>= nbits;
    nbuf_ = nbits < nbuf_ ? nbuf_ - nbits : 0;
    bit_pos_ += static_cast<std::size_t>(nbits);
  }

  /// Reads `nbits` bits (LSB first). Reads past the end return zero bits,
  /// mirroring the zero padding emitted by BitWriter::finish(). nbits in
  /// [0, 57].
  std::uint64_t read_bits(int nbits) {
    const std::uint64_t v = peek_bits(nbits);
    consume(nbits);
    return v;
  }

  /// Reads a single bit.
  std::uint32_t read_bit() { return static_cast<std::uint32_t>(read_bits(1)); }

  /// Total bits consumed.
  std::size_t bit_pos() const { return bit_pos_; }

  /// True once every real (non-padding) bit has been consumed.
  bool exhausted() const { return bit_pos_ >= data_.size() * 8; }

 private:
  // Tops the buffer up to at least 57 bits while data remains. Bits above
  // nbuf_ are either zero or the true next stream bits, never garbage.
  void refill();

  std::span<const std::uint8_t> data_;
  std::size_t byte_pos_ = 0;
  std::size_t bit_pos_ = 0;
  std::uint64_t buf_ = 0;
  int nbuf_ = 0;
};

}  // namespace deepsz::util
