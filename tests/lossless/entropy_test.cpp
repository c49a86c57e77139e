#include "lossless/entropy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace deepsz::lossless {
namespace {

std::vector<std::uint32_t> roundtrip(const std::vector<std::uint32_t>& symbols,
                                     std::size_t alphabet) {
  std::vector<std::uint64_t> freq(alphabet, 0);
  for (auto s : symbols) ++freq[s];
  HuffmanEncoder enc;
  enc.init(freq);
  util::BitWriter bw;
  enc.write_table(bw);
  for (auto s : symbols) enc.encode(bw, s);
  auto bytes = bw.finish();

  util::BitReader br(bytes);
  HuffmanDecoder dec;
  dec.read_table(br);
  std::vector<std::uint32_t> out(symbols.size());
  for (auto& s : out) s = dec.decode(br);
  return out;
}

TEST(Huffman, RoundTripSmallAlphabet) {
  std::vector<std::uint32_t> symbols = {0, 1, 1, 2, 2, 2, 2, 3, 0, 1};
  EXPECT_EQ(roundtrip(symbols, 4), symbols);
}

TEST(Huffman, SingleSymbolStream) {
  std::vector<std::uint32_t> symbols(1000, 5);
  EXPECT_EQ(roundtrip(symbols, 16), symbols);
}

TEST(Huffman, TwoSymbolStream) {
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 500; ++i) symbols.push_back(i % 7 == 0 ? 1u : 0u);
  EXPECT_EQ(roundtrip(symbols, 2), symbols);
}

TEST(Huffman, LargeSparseAlphabet) {
  // Mimics SZ quantization codes: 65536-symbol alphabet, few present.
  util::Pcg32 rng(3);
  std::vector<std::uint32_t> symbols;
  const std::uint32_t center = 32768;
  for (int i = 0; i < 20000; ++i) {
    symbols.push_back(center + rng.bounded(33) - 16);
  }
  EXPECT_EQ(roundtrip(symbols, 65536), symbols);
}

TEST(Huffman, RandomAlphabetsAndSkews) {
  util::Pcg32 rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    std::size_t alphabet = 2 + rng.bounded(300);
    std::vector<std::uint32_t> symbols;
    for (int i = 0; i < 3000; ++i) {
      // Geometric-ish skew to stress unequal code lengths.
      std::uint32_t s = 0;
      while (s + 1 < alphabet && rng.uniform() < 0.4) ++s;
      symbols.push_back(s);
    }
    ASSERT_EQ(roundtrip(symbols, alphabet), symbols) << "trial " << trial;
  }
}

TEST(Huffman, CodeLengthsSatisfyKraft) {
  util::Pcg32 rng(23);
  std::vector<std::uint64_t> freq(512);
  for (auto& f : freq) f = rng.bounded(10000);
  auto lengths = build_code_lengths(freq, 12);
  double kraft = 0;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] > 0) {
      ASSERT_GT(lengths[s], 0);
      ASSERT_LE(lengths[s], 12);
      kraft += std::pow(2.0, -lengths[s]);
    } else {
      ASSERT_EQ(lengths[s], 0);
    }
  }
  EXPECT_LE(kraft, 1.0 + 1e-12);
}

TEST(Huffman, LengthLimitingUnderExtremeSkew) {
  // freq_i = 2^i forces deep trees without limiting.
  std::vector<std::uint64_t> freq(40);
  std::uint64_t f = 1;
  for (auto& x : freq) {
    x = f;
    f = f < (1ull << 50) ? f * 2 : f;
  }
  auto lengths = build_code_lengths(freq, 15);
  for (auto l : lengths) EXPECT_LE(l, 15);
  // And the code must still round-trip.
  std::vector<std::uint32_t> symbols;
  for (std::uint32_t s = 0; s < 40; ++s) {
    for (int i = 0; i < 3; ++i) symbols.push_back(s);
  }
  HuffmanEncoder enc;
  enc.init(freq, 15);
  util::BitWriter bw;
  enc.write_table(bw);
  for (auto s : symbols) enc.encode(bw, s);
  auto bytes = bw.finish();
  util::BitReader br(bytes);
  HuffmanDecoder dec;
  dec.read_table(br);
  for (auto expected : symbols) {
    ASSERT_EQ(dec.decode(br), expected);
  }
}

TEST(Huffman, CompressionTracksEntropy) {
  // A heavily skewed stream must code well below 8 bits/symbol.
  std::vector<std::uint32_t> symbols;
  util::Pcg32 rng(31);
  for (int i = 0; i < 50000; ++i) {
    symbols.push_back(rng.uniform() < 0.95 ? 0u : 1u + rng.bounded(255));
  }
  std::vector<std::uint64_t> freq(256, 0);
  for (auto s : symbols) ++freq[s];
  HuffmanEncoder enc;
  enc.init(freq);
  util::BitWriter bw;
  for (auto s : symbols) enc.encode(bw, s);
  double bits_per_symbol =
      static_cast<double>(bw.bit_count()) / symbols.size();
  EXPECT_LT(bits_per_symbol, 1.5);  // entropy is ~0.7 bits here
}

TEST(Huffman, ReverseBits) {
  EXPECT_EQ(reverse_bits(0b1, 1), 0b1u);
  EXPECT_EQ(reverse_bits(0b10, 2), 0b01u);
  EXPECT_EQ(reverse_bits(0b1101, 4), 0b1011u);
  EXPECT_EQ(reverse_bits(0x1, 8), 0x80u);
}

/// Canonical codes for `lengths`, assigned in (length, symbol) order.
std::map<std::pair<int, std::uint32_t>, std::uint32_t> canonical_codes(
    const std::vector<int>& lengths) {
  std::map<std::pair<int, std::uint32_t>, std::uint32_t> code_to_sym;
  std::uint32_t code = 0;
  for (int l = 1; l <= kMaxCodeLen; ++l, code <<= 1) {
    for (std::uint32_t s = 0; s < lengths.size(); ++s) {
      if (lengths[s] == l) code_to_sym[{l, code++}] = s;
    }
  }
  return code_to_sym;
}

/// Reference decoder: reads one bit at a time, MSB of the code first, and
/// looks each prefix up among the codes of its length.
struct BitSerialDecoder {
  explicit BitSerialDecoder(const std::vector<int>& lengths)
      : code_to_sym(canonical_codes(lengths)),
        max_len(*std::max_element(lengths.begin(), lengths.end())) {}
  std::uint32_t decode(util::BitReader& br) const {
    std::uint32_t code = 0;
    for (int l = 1; l <= max_len; ++l) {
      code = (code << 1) | br.read_bit();
      auto it = code_to_sym.find({l, code});
      if (it != code_to_sym.end()) return it->second;
    }
    throw std::runtime_error("reference: invalid code");
  }
  std::map<std::pair<int, std::uint32_t>, std::uint32_t> code_to_sym;
  int max_len;
};

/// Decodes `count` symbols from `bytes` with the table decoder and the
/// reference; they must agree on every symbol, on bit_pos() after every
/// symbol, and on where (if anywhere) the stream turns invalid, which is
/// reported through `hit_invalid`.
void expect_decoders_agree(const std::vector<int>& lengths,
                           const std::vector<std::uint8_t>& bytes,
                           std::size_t count, bool* hit_invalid = nullptr) {
  HuffmanDecoder table;
  table.init_from_lengths(lengths);
  const BitSerialDecoder reference(lengths);
  util::BitReader a(bytes), b(bytes);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t x = 0, y = 0;
    bool x_threw = false, y_threw = false;
    try {
      x = table.decode(a);
    } catch (const std::runtime_error&) {
      x_threw = true;
    }
    try {
      y = reference.decode(b);
    } catch (const std::runtime_error&) {
      y_threw = true;
    }
    ASSERT_EQ(x_threw, y_threw) << "symbol " << i;
    ASSERT_EQ(a.bit_pos(), b.bit_pos()) << "symbol " << i;
    if (x_threw) {
      if (hit_invalid) *hit_invalid = true;
      return;
    }
    ASSERT_EQ(x, y) << "symbol " << i;
  }
}

/// Random code lengths built by splitting random leaves of a binary tree,
/// assigned to random symbols of `alphabet`. A per-call bias towards the
/// newest leaf grows long chains, up to kMaxCodeLen. Dropping leaves leaves
/// the code incomplete: the dropped prefixes are invalid.
std::vector<int> random_code_lengths(util::Pcg32& rng, std::uint32_t alphabet,
                                     std::uint32_t leaves, bool incomplete) {
  const double newest_bias = rng.uniform();
  std::vector<int> depth = {0};
  auto any_leaf = [&] {
    return rng.bounded(static_cast<std::uint32_t>(depth.size()));
  };
  while (depth.size() < leaves) {
    std::size_t pick =
        rng.uniform() < newest_bias ? depth.size() - 1 : any_leaf();
    if (depth[pick] >= kMaxCodeLen) pick = any_leaf();
    if (depth[pick] >= kMaxCodeLen) continue;
    depth.push_back(++depth[pick]);
  }
  if (incomplete) {
    for (std::uint32_t drop = 1 + rng.bounded(3); drop > 0 && depth.size() > 1;
         --drop) {
      depth.erase(depth.begin() + any_leaf());
    }
  }
  std::vector<std::uint32_t> symbols(alphabet);
  std::iota(symbols.begin(), symbols.end(), 0u);
  for (std::uint32_t i = alphabet - 1; i > 0; --i) {
    std::swap(symbols[i], symbols[rng.bounded(i + 1)]);
  }
  std::vector<int> lengths(alphabet, 0);
  for (std::size_t i = 0; i < depth.size(); ++i) lengths[symbols[i]] = depth[i];
  return lengths;
}

/// Writes `n` uniformly chosen present symbols with the canonical code, so
/// long codes are as frequent as short ones.
std::vector<std::uint8_t> encode_uniform(util::Pcg32& rng,
                                         const std::vector<int>& lengths,
                                         std::size_t n) {
  std::vector<std::pair<int, std::uint32_t>> codes;
  for (const auto& [key, sym] : canonical_codes(lengths)) codes.push_back(key);
  util::BitWriter bw;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [l, code] =
        codes[rng.bounded(static_cast<std::uint32_t>(codes.size()))];
    bw.write_bits(reverse_bits(code, l), l);
  }
  return bw.finish();
}

TEST(Huffman, TableDecodeMatchesBitSerialOnLongCodes) {
  util::Pcg32 rng(101);
  bool saw_max_len = false;
  for (int trial = 0; trial < 40; ++trial) {
    const std::uint32_t leaves = 2 + rng.bounded(200);
    const auto lengths =
        random_code_lengths(rng, leaves + rng.bounded(50), leaves, false);
    saw_max_len |= *std::max_element(lengths.begin(), lengths.end()) ==
                   kMaxCodeLen;
    // Decoding 50 symbols more than were written runs past the end.
    expect_decoders_agree(lengths, encode_uniform(rng, lengths, 500), 550);
    if (HasFatalFailure()) FAIL() << "trial " << trial;
  }
  EXPECT_TRUE(saw_max_len);
}

TEST(Huffman, TableDecodeMatchesBitSerialOnIncompleteCodes) {
  util::Pcg32 rng(202);
  int threw = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::uint32_t leaves = 2 + rng.bounded(60);
    const auto lengths = random_code_lengths(rng, leaves, leaves, true);
    // Random bits: decoding stops where both hit an invalid prefix.
    std::vector<std::uint8_t> bytes(64);
    for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng.bounded(256));
    bool hit_invalid = false;
    expect_decoders_agree(lengths, bytes, 1000, &hit_invalid);
    if (HasFatalFailure()) FAIL() << "trial " << trial;
    threw += hit_invalid;
  }
  EXPECT_GT(threw, 20);
}

TEST(Huffman, TableDecodeMatchesBitSerialOnOneSymbolAlphabets) {
  // A lone symbol gets the 1-bit code 0; a 1 bit is an invalid code.
  const std::vector<std::uint8_t> bytes = {0x00, 0xf0, 0x5a};
  expect_decoders_agree({1}, bytes, 100);
  expect_decoders_agree({0, 0, 1, 0}, bytes, 100);
  expect_decoders_agree({1}, {}, 20);  // every bit past the end reads 0
}

TEST(Huffman, OverSubscribedTableRejected) {
  // Three 1-bit codes: Kraft sum 3/2. Forged by hand; the encoder never
  // writes one.
  util::BitWriter bw;
  bw.write_bits(3, 32);  // alphabet
  bw.write_bits(3, 32);  // present symbols
  for (std::uint32_t s = 0; s < 3; ++s) {
    bw.write_bits(s, 2);
    bw.write_bits(1, 5);
  }
  bw.write_bits(0, 8);  // one symbol's worth of code bits
  const auto bytes = bw.finish();
  util::BitReader br(bytes);
  HuffmanDecoder dec;
  EXPECT_THROW(dec.read_table(br), std::runtime_error);
  EXPECT_THROW(huffman_decode_symbols(bytes, 1, 3), std::runtime_error);
  EXPECT_THROW(dec.init_from_lengths(std::vector<int>{1, 1, 1}),
               std::runtime_error);
}

}  // namespace
}  // namespace deepsz::lossless
