#include "util/bitstream.h"

#include <bit>
#include <cassert>
#include <cstring>

namespace deepsz::util {

void BitWriter::write_bits(std::uint64_t value, int nbits) {
  assert(nbits >= 0 && nbits <= 57);
  if (nbits == 0) return;
  buf_ |= (value & ((nbits == 64 ? ~0ull : ((1ull << nbits) - 1)))) << nbuf_;
  nbuf_ += nbits;
  while (nbuf_ >= 8) {
    bytes_.push_back(static_cast<std::uint8_t>(buf_ & 0xffu));
    buf_ >>= 8;
    nbuf_ -= 8;
  }
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (nbuf_ > 0) {
    bytes_.push_back(static_cast<std::uint8_t>(buf_ & 0xffu));
    buf_ = 0;
    nbuf_ = 0;
  }
  return std::move(bytes_);
}

void BitReader::refill() {
  if (data_.size() - byte_pos_ >= 8) {
    // Whole-word load: counts the (64 - nbuf_) / 8 whole bytes that fit; the
    // few bits of the next byte that also land above nbuf_ are its true
    // bits, which the next refill ORs in again unchanged.
    std::uint64_t word = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&word, data_.data() + byte_pos_, sizeof(word));
    } else {
      for (int i = 0; i < 8; ++i) {
        word |= static_cast<std::uint64_t>(data_[byte_pos_ + i]) << (8 * i);
      }
    }
    buf_ |= word << nbuf_;
    const int whole = (64 - nbuf_) >> 3;
    byte_pos_ += static_cast<std::size_t>(whole);
    nbuf_ += 8 * whole;
    return;
  }
  while (nbuf_ <= 56 && byte_pos_ < data_.size()) {
    buf_ |= static_cast<std::uint64_t>(data_[byte_pos_++]) << nbuf_;
    nbuf_ += 8;
  }
}

}  // namespace deepsz::util
