#include "util/bitstream.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace deepsz::util {
namespace {

TEST(BitStream, SingleBitsRoundTrip) {
  BitWriter bw;
  std::vector<std::uint32_t> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1};
  for (auto b : bits) bw.write_bit(b);
  auto bytes = bw.finish();
  BitReader br(bytes);
  for (auto b : bits) EXPECT_EQ(br.read_bit(), b);
}

TEST(BitStream, MultiBitFieldsRoundTrip) {
  BitWriter bw;
  bw.write_bits(0x5, 3);
  bw.write_bits(0x1ff, 9);
  bw.write_bits(0, 1);
  bw.write_bits(0xdeadbeef, 32);
  bw.write_bits(0x1ffffffffffull, 41);
  auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.read_bits(3), 0x5u);
  EXPECT_EQ(br.read_bits(9), 0x1ffu);
  EXPECT_EQ(br.read_bits(1), 0u);
  EXPECT_EQ(br.read_bits(32), 0xdeadbeefull);
  EXPECT_EQ(br.read_bits(41), 0x1ffffffffffull);
}

TEST(BitStream, ZeroWidthWriteIsNoop) {
  BitWriter bw;
  bw.write_bits(123, 0);
  bw.write_bits(1, 1);
  auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.read_bits(0), 0u);
  EXPECT_EQ(br.read_bit(), 1u);
}

TEST(BitStream, ValueIsMaskedToWidth) {
  BitWriter bw;
  bw.write_bits(0xff, 4);  // only low 4 bits kept
  bw.write_bits(0x0, 4);
  auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.read_bits(4), 0xfu);
  EXPECT_EQ(br.read_bits(4), 0x0u);
}

TEST(BitStream, ReadPastEndReturnsZeros) {
  BitWriter bw;
  bw.write_bits(1, 1);
  auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.read_bit(), 1u);
  EXPECT_EQ(br.read_bits(7), 0u);   // padding
  EXPECT_EQ(br.read_bits(32), 0u);  // past end
}

TEST(BitStream, BitCountTracksWrites) {
  BitWriter bw;
  EXPECT_EQ(bw.bit_count(), 0u);
  bw.write_bits(0, 5);
  EXPECT_EQ(bw.bit_count(), 5u);
  bw.write_bits(0, 11);
  EXPECT_EQ(bw.bit_count(), 16u);
}

TEST(BitStream, RandomizedRoundTrip) {
  Pcg32 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::pair<std::uint64_t, int>> fields;
    BitWriter bw;
    for (int i = 0; i < 500; ++i) {
      int width = 1 + static_cast<int>(rng.bounded(57));
      std::uint64_t mask = width == 64 ? ~0ull : ((1ull << width) - 1);
      std::uint64_t v = rng.next_u64() & mask;
      fields.emplace_back(v, width);
      bw.write_bits(v, width);
    }
    auto bytes = bw.finish();
    BitReader br(bytes);
    for (auto [v, width] : fields) {
      ASSERT_EQ(br.read_bits(width), v);
    }
  }
}

TEST(BitReader, PeekConsumeMatchesReadBits) {
  // Random interleavings of peek_bits/consume, read_bits and read_bit over
  // buffers short and long enough to cross the 8-byte refill boundary, read
  // well past their end. A read_bits-only reader, checked against the raw
  // bytes, is the reference.
  Pcg32 rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::uint8_t> bytes(rng.bounded(41));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.bounded(256));
    auto bit_at = [&](std::size_t p) -> std::uint64_t {
      return p < bytes.size() * 8 ? (bytes[p / 8] >> (p % 8)) & 1u : 0u;
    };
    BitReader mixed(bytes), plain(bytes);
    for (int op = 0; op < 120; ++op) {
      const int n = static_cast<int>(rng.bounded(58));
      const std::size_t at = plain.bit_pos();
      std::uint64_t got = 0;
      int width = n;
      switch (rng.bounded(3)) {
        case 0:
          got = mixed.read_bits(n);
          break;
        case 1: {
          const std::uint64_t peeked = mixed.peek_bits(n);
          ASSERT_EQ(mixed.peek_bits(n), peeked);  // peeking is idempotent
          width = static_cast<int>(rng.bounded(n + 1));
          got = peeked & ((1ull << width) - 1);
          mixed.consume(width);
          break;
        }
        default:
          width = 1;
          got = mixed.read_bit();
      }
      const std::uint64_t want = plain.read_bits(width);
      std::uint64_t oracle = 0;
      for (int k = 0; k < width; ++k) oracle |= bit_at(at + k) << k;
      ASSERT_EQ(want, oracle) << "trial " << trial << " op " << op;
      ASSERT_EQ(got, want) << "trial " << trial << " op " << op;
      ASSERT_EQ(mixed.bit_pos(), plain.bit_pos());
      ASSERT_EQ(mixed.exhausted(), plain.exhausted());
    }
    EXPECT_TRUE(mixed.exhausted());
  }
}

}  // namespace
}  // namespace deepsz::util
