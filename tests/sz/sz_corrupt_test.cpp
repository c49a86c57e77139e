// Regression tests for the hardened stream parsers: truncated or corrupt
// input must throw std::runtime_error — never read past the buffer, crash,
// or surface an allocation failure from an attacker-sized header field.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "lossless/codec.h"
#include "sz/sz.h"
#include "tests/sz/sz_v1_fixture.h"
#include "util/byte_io.h"
#include "util/rng.h"

namespace deepsz {
namespace {

std::vector<float> weight_like(std::size_t n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<float> out(n);
  for (auto& v : out) {
    v = static_cast<float>(0.05 * (rng.uniform() * 2.0 - 1.0));
  }
  return out;
}

std::vector<std::uint8_t> prefix(std::span<const std::uint8_t> s,
                                 std::size_t n) {
  return std::vector<std::uint8_t>(s.begin(), s.begin() + n);
}

/// The two wire formats, store-backed: v2 from the encoder, v1 from the
/// committed fixture (nothing encodes v1 any more).
std::vector<std::pair<const char*, std::vector<std::uint8_t>>>
store_framed_streams(std::size_t n, std::uint64_t seed) {
  sz::SzParams params;
  params.backend = lossless::CodecId::kStore;
  params.chunk_size = 1024;  // v2: several chunks
  auto v1 = sz::sz_v1_fixture();
  // Byte 4 is the backend frame's codec id: the fixture's zstd pass fell
  // back to a store frame, so every declared length is checked exactly.
  EXPECT_EQ(v1.at(4), static_cast<std::uint8_t>(lossless::CodecId::kStore));
  return {{"v1", std::move(v1)},
          {"v2", sz::compress(weight_like(n, seed), params)}};
}

TEST(SzCorrupt, EveryTruncatedPrefixThrowsRuntimeError) {
  // A store backend makes truncation detection exact at every length: all
  // declared section lengths are bounds-checked against what is present.
  // Both wire formats must hold the guarantee.
  for (const auto& [version, stream] : store_framed_streams(3000, 1)) {
    for (std::size_t n = 0; n < stream.size(); ++n) {
      EXPECT_THROW(sz::decompress(prefix(stream, n)), std::runtime_error)
          << version << " prefix " << n << "/" << stream.size();
    }
  }
}

TEST(SzCorrupt, TruncatedHeaderPrefixesThrowOnInspect) {
  for (const auto& [version, stream] : store_framed_streams(500, 2)) {
    for (std::size_t n = 0; n < std::min<std::size_t>(stream.size(), 64);
         ++n) {
      EXPECT_THROW(sz::inspect(prefix(stream, n)), std::runtime_error)
          << version << " prefix " << n;
    }
  }
}

TEST(SzCorrupt, CompressedBackendPrefixesNeverEscapeRuntimeError) {
  // With an entropy-coded backend some truncations are indistinguishable
  // from short valid payloads until deeper checks fire; the guarantee under
  // test is "std::runtime_error or clean success", never any other escape.
  auto stream = sz::compress(weight_like(3000, 3), sz::SzParams{});
  for (std::size_t n = 0; n < stream.size(); ++n) {
    try {
      sz::decompress(prefix(stream, n));
    } catch (const std::runtime_error&) {
      // expected for essentially every prefix
    }
  }
}

// Patches a fixed-header field of the store-framed *v1* fixture. Payload
// layout after the 13-byte outer frame (magic u32 + frame id u8 +
// raw_size u64): version u32, count u64, eb f64, bins u32, block u32,
// predictor u8, unpredictable u64, n_blocks u64. The v2 header-corruption
// suite lives in sz_v2_corrupt_test.cpp.
template <typename T>
std::vector<std::uint8_t> patched(std::vector<std::uint8_t> stream,
                                  std::size_t payload_offset, T value) {
  std::memcpy(stream.data() + 13 + payload_offset, &value, sizeof(T));
  return stream;
}

class SzHeaderCorrupt : public ::testing::Test {
 protected:
  void SetUp() override {
    stream_ = sz::sz_v1_fixture();
    ASSERT_EQ(stream_.at(4),
              static_cast<std::uint8_t>(lossless::CodecId::kStore));
  }
  std::vector<std::uint8_t> stream_;
};

TEST_F(SzHeaderCorrupt, ImplausibleCountRejectedBeforeAllocation) {
  auto bad = patched<std::uint64_t>(stream_, 4, 1ull << 62);
  EXPECT_THROW(sz::decompress(bad), std::runtime_error);
  EXPECT_THROW(sz::inspect(bad), std::runtime_error);
}

TEST_F(SzHeaderCorrupt, UnpredictableCountBeyondCountRejected) {
  auto bad = patched<std::uint64_t>(stream_, 29, 1ull << 60);
  EXPECT_THROW(sz::decompress(bad), std::runtime_error);
}

TEST_F(SzHeaderCorrupt, BlockCountMismatchRejected) {
  auto bad = patched<std::uint64_t>(stream_, 37, 9999);
  EXPECT_THROW(sz::decompress(bad), std::runtime_error);
}

TEST_F(SzHeaderCorrupt, TinyBlockSizeRejected) {
  auto bad = patched<std::uint32_t>(stream_, 24, 0);
  EXPECT_THROW(sz::decompress(bad), std::runtime_error);
}

TEST_F(SzHeaderCorrupt, NonFiniteErrorBoundRejected) {
  auto bad = patched<double>(stream_, 12, -1.0);
  EXPECT_THROW(sz::decompress(bad), std::runtime_error);
}

TEST_F(SzHeaderCorrupt, WrappingSectionLengthRejected) {
  // Regression: section lengths near 2^64 (here the predictor-kinds length
  // at payload offset 45) used to wrap ByteReader's `pos + n` bounds check
  // and read far past the buffer.
  for (std::uint64_t evil :
       {~std::uint64_t{0}, ~std::uint64_t{0} - 1, std::uint64_t{1} << 63}) {
    auto bad = patched<std::uint64_t>(stream_, 45, evil);
    EXPECT_THROW(sz::decompress(bad), std::runtime_error) << evil;
  }
}

TEST(LosslessCorrupt, EveryTruncatedStoreFramePrefixThrows) {
  // Store frames make the check exact: any missing byte is a size mismatch.
  util::Pcg32 rng(7);
  std::vector<std::uint8_t> data(1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bounded(256));
  auto frame = lossless::compress(lossless::CodecId::kStore, data);
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_THROW(lossless::decompress(prefix(frame, n)), std::runtime_error)
        << "prefix " << n;
  }
}

TEST(LosslessCorrupt, TruncatedCompressedFramePrefixesNeverEscape) {
  // Entropy-coded payloads may remain decodable for a few tail truncations
  // (bit padding); the guarantee is that nothing but std::runtime_error ever
  // escapes, and the 9-byte frame header is always fully validated.
  util::Pcg32 rng(8);
  std::vector<std::uint8_t> data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bounded(64));
  for (auto id : {lossless::CodecId::kGzipLike, lossless::CodecId::kZstdLike,
                  lossless::CodecId::kBloscLike}) {
    auto frame = lossless::compress(id, data);
    for (std::size_t n = 0; n < frame.size(); ++n) {
      try {
        lossless::decompress(prefix(frame, n));
        EXPECT_GE(n, 9u) << "frame header not validated, codec "
                         << lossless::codec_name(id);
      } catch (const std::runtime_error&) {
        // required failure mode: runtime_error, not out_of_range/bad_alloc
      }
    }
  }
}

TEST(LosslessCorrupt, ImplausibleRawSizeRejected) {
  std::vector<std::uint8_t> frame;
  util::put_le<std::uint8_t>(frame, 2);  // zstd id
  util::put_le<std::uint64_t>(frame, ~0ull);
  frame.push_back(0x00);
  EXPECT_THROW(lossless::decompress(frame), std::runtime_error);
}

TEST(LosslessCorrupt, UnknownCodecIdRejected) {
  std::vector<std::uint8_t> frame;
  util::put_le<std::uint8_t>(frame, 42);
  util::put_le<std::uint64_t>(frame, 0);
  EXPECT_THROW(lossless::decompress(frame), std::runtime_error);
}

}  // namespace
}  // namespace deepsz
