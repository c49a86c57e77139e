// Randomized property sweep over the lossless codecs: arbitrary byte
// patterns round-trip exactly, and mutated frames throw rather than crash.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "lossless/codec.h"
#include "util/bitstream.h"
#include "util/rng.h"

namespace deepsz::lossless {
namespace {

std::vector<std::uint8_t> random_structured(util::Pcg32& rng) {
  const std::size_t n = rng.bounded(200000);
  std::vector<std::uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    switch (rng.bounded(4)) {
      case 0: {  // run
        std::uint8_t b = static_cast<std::uint8_t>(rng.next_u32());
        std::size_t len = 1 + rng.bounded(500);
        out.insert(out.end(), len, b);
        break;
      }
      case 1: {  // random bytes
        std::size_t len = 1 + rng.bounded(200);
        for (std::size_t i = 0; i < len; ++i) {
          out.push_back(static_cast<std::uint8_t>(rng.next_u32()));
        }
        break;
      }
      case 2: {  // copy of earlier content (forces matches)
        if (out.empty()) break;
        std::size_t start = rng.bounded(static_cast<std::uint32_t>(out.size()));
        std::size_t len =
            1 + rng.bounded(static_cast<std::uint32_t>(out.size() - start));
        for (std::size_t i = 0; i < len; ++i) {
          out.push_back(out[start + i]);
        }
        break;
      }
      default: {  // counter pattern
        std::size_t len = 1 + rng.bounded(300);
        for (std::size_t i = 0; i < len; ++i) {
          out.push_back(static_cast<std::uint8_t>(i));
        }
        break;
      }
    }
  }
  out.resize(n);
  return out;
}

class CodecFuzz
    : public ::testing::TestWithParam<std::tuple<CodecId, int>> {};

TEST_P(CodecFuzz, StructuredPatternsRoundTrip) {
  auto [codec, seed] = GetParam();
  util::Pcg32 rng(seed * 7919 + 13);
  for (int trial = 0; trial < 6; ++trial) {
    auto data = random_structured(rng);
    auto frame = compress(codec, data);
    ASSERT_EQ(decompress(frame), data)
        << codec_name(codec) << " trial " << trial << " n=" << data.size();
  }
}

TEST_P(CodecFuzz, MutatedFramesNeverCrash) {
  auto [codec, seed] = GetParam();
  util::Pcg32 rng(seed * 104729 + 3);
  auto data = random_structured(rng);
  auto frame = compress(codec, data);
  for (int trial = 0; trial < 30; ++trial) {
    auto copy = frame;
    if (rng.uniform() < 0.4 && copy.size() > 2) {
      copy.resize(1 + rng.bounded(static_cast<std::uint32_t>(copy.size() - 1)));
    }
    for (int f = 0; f < 4 && !copy.empty(); ++f) {
      copy[rng.bounded(static_cast<std::uint32_t>(copy.size()))] ^=
          static_cast<std::uint8_t>(1u << rng.bounded(8));
    }
    try {
      auto out = decompress(copy);
      (void)out;
    } catch (const std::exception&) {
    }
  }
}

TEST(ZstdLikeCorrupt, LengthBucketBeyondU32Rejected) {
  // A literal-length table whose only code is bucket 40: reading 40 extra
  // bits and forming 2^40 - 1 would overflow, so the decoder must throw.
  util::BitWriter bw;
  bw.write_bits(1, 32);  // sequences
  bw.write_bits(0, 32);  // literals
  auto table = [&](std::uint32_t alphabet, std::uint32_t sym, int sym_bits) {
    bw.write_bits(alphabet, 32);
    bw.write_bits(1, 32);  // one present symbol, 1-bit code
    bw.write_bits(sym, sym_bits);
    bw.write_bits(1, 5);
  };
  // Literals, literal lengths, match lengths, offsets; then the three
  // 1-bit codes of the one sequence.
  table(1, 0, 1);
  table(64, 40, 6);
  table(1, 0, 1);
  table(1, 0, 1);
  bw.write_bits(0, 3);
  const auto payload = bw.finish();
  EXPECT_THROW(raw::zstd_like_decompress(payload, 100), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecFuzz,
    ::testing::Combine(::testing::Values(CodecId::kGzipLike,
                                         CodecId::kZstdLike,
                                         CodecId::kBloscLike),
                       ::testing::Range(0, 3)),
    [](const auto& info) {
      return codec_name(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace deepsz::lossless
