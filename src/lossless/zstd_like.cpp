// ZstdLike: Zstandard-class compressor — LZ77 over a 1 MB window parsed into
// (literal-run, match-length, offset) sequences, with independent Huffman
// models for the literal bytes and for the log2-bucketed sequence fields.
// This mirrors Zstandard's architecture (sequences + separate entropy tables)
// while using our canonical Huffman stage in place of FSE; on the paper's
// index-array workloads it compresses strictly better than GzipLike, matching
// the ordering in Figure 4.

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "lossless/codec.h"
#include "lossless/entropy.h"
#include "lossless/lz77.h"
#include "util/bitstream.h"

namespace deepsz::lossless::raw {
namespace {

// Values are bucketed as (bucket = floor(log2(v+1)), extra = v+1 - 2^bucket),
// i.e. Elias-gamma-style; each stream has at most 32 buckets.
constexpr int kNumBuckets = 33;

std::uint32_t bucket_of(std::uint32_t v) {
  return std::bit_width(v + 1u) - 1;
}

std::uint32_t bucket_base(std::uint32_t b) { return (1u << b) - 1u; }

struct Sequence {
  std::uint32_t lit_len;    // literals preceding the match
  std::uint32_t match_len;  // 0 in the final literals-only sequence
  std::uint32_t offset;
};

struct Parse {
  std::vector<std::uint8_t> literals;
  std::vector<Sequence> sequences;
};

Parse parse_input(std::span<const std::uint8_t> data) {
  Lz77Params params;
  params.window_bits = 20;
  params.min_match = 4;
  params.max_match = 1 << 16;
  params.max_chain = 256;
  params.nice_length = 512;
  MatchFinder mf(data, params);

  // Cost-based match acceptance (the spirit of zstd's optimal parser): a
  // match is worth taking only if its sequence costs fewer bits than entropy-
  // coding its bytes as literals. Literal cost is estimated from the global
  // byte entropy (floored at 1 bit so runs still match).
  double lit_cost;
  {
    std::array<std::uint64_t, 256> counts{};
    for (std::uint8_t b : data) ++counts[b];
    double h = 0.0;
    for (auto c : counts) {
      if (c == 0) continue;
      double p = static_cast<double>(c) / static_cast<double>(data.size());
      h -= p * std::log2(p);
    }
    lit_cost = std::max(1.0, h);
  }
  auto worth_taking = [lit_cost](const Match& m) {
    if (!m.found()) return false;
    // ~13 bits of sequence symbols + the offset's extra bits.
    double match_bits = 13.0 + std::bit_width(m.distance);
    return match_bits < lit_cost * static_cast<double>(m.length);
  };

  Parse parse;
  std::size_t pos = 0;
  std::size_t lit_start = 0;
  while (pos < data.size()) {
    Match m = mf.find(pos);
    if (!worth_taking(m)) m = Match{};
    if (m.found() && pos + 1 < data.size()) {
      mf.insert(pos);
      Match next = mf.find(pos + 1);
      if (next.length > m.length + 1) {
        ++pos;
        continue;
      }
      parse.literals.insert(parse.literals.end(), data.begin() + lit_start,
                            data.begin() + pos);
      parse.sequences.push_back({static_cast<std::uint32_t>(pos - lit_start),
                                 m.length, m.distance});
      for (std::size_t i = 1; i < m.length; ++i) mf.insert(pos + i);
      pos += m.length;
      lit_start = pos;
      continue;
    }
    mf.insert(pos);
    ++pos;
  }
  parse.literals.insert(parse.literals.end(), data.begin() + lit_start,
                        data.end());
  parse.sequences.push_back(
      {static_cast<std::uint32_t>(data.size() - lit_start), 0, 0});
  return parse;
}

}  // namespace

std::vector<std::uint8_t> zstd_like_compress(std::span<const std::uint8_t> data) {
  Parse parse = parse_input(data);

  std::vector<std::uint64_t> lit_freq(256, 0);
  for (std::uint8_t b : parse.literals) ++lit_freq[b];
  std::vector<std::uint64_t> ll_freq(kNumBuckets, 0), ml_freq(kNumBuckets, 0),
      of_freq(kNumBuckets, 0);
  for (const Sequence& s : parse.sequences) {
    ++ll_freq[bucket_of(s.lit_len)];
    ++ml_freq[bucket_of(s.match_len)];
    ++of_freq[bucket_of(s.offset)];
  }

  HuffmanEncoder lit_enc, ll_enc, ml_enc, of_enc;
  lit_enc.init(lit_freq, 15);
  ll_enc.init(ll_freq, 15);
  ml_enc.init(ml_freq, 15);
  of_enc.init(of_freq, 15);

  util::BitWriter bw;
  bw.write_bits(parse.sequences.size(), 32);
  bw.write_bits(parse.literals.size(), 32);
  lit_enc.write_table(bw);
  ll_enc.write_table(bw);
  ml_enc.write_table(bw);
  of_enc.write_table(bw);
  for (std::uint8_t b : parse.literals) lit_enc.encode(bw, b);
  for (const Sequence& s : parse.sequences) {
    std::uint32_t bl = bucket_of(s.lit_len);
    ll_enc.encode(bw, bl);
    bw.write_bits(s.lit_len - bucket_base(bl), static_cast<int>(bl));
    std::uint32_t bm = bucket_of(s.match_len);
    ml_enc.encode(bw, bm);
    bw.write_bits(s.match_len - bucket_base(bm), static_cast<int>(bm));
    std::uint32_t bo = bucket_of(s.offset);
    of_enc.encode(bw, bo);
    bw.write_bits(s.offset - bucket_base(bo), static_cast<int>(bo));
  }
  return bw.finish();
}

std::vector<std::uint8_t> zstd_like_decompress(
    std::span<const std::uint8_t> payload, std::size_t raw_size) {
  util::BitReader br(payload);
  auto n_seq = static_cast<std::size_t>(br.read_bits(32));
  auto n_lit = static_cast<std::size_t>(br.read_bits(32));
  // A valid parse never carries more literals than output bytes, nor more
  // sequences than output bytes + 1; and every literal/sequence costs at
  // least one payload bit, so counts are also bounded by the bytes actually
  // present. Reject corrupt counts before they turn into allocations or
  // long decode loops (raw_size alone is untrusted too).
  if (n_lit > raw_size || n_seq > raw_size + 1 ||
      n_lit > payload.size() * 8 || n_seq > payload.size() * 8) {
    throw std::runtime_error("zstd_like: corrupt section counts");
  }

  HuffmanDecoder lit_dec, ll_dec, ml_dec, of_dec;
  lit_dec.read_table(br);
  ll_dec.read_table(br);
  ml_dec.read_table(br);
  of_dec.read_table(br);

  std::vector<std::uint8_t> literals(n_lit);
  for (std::size_t i = 0; i < n_lit; ++i) {
    literals[i] = static_cast<std::uint8_t>(lit_dec.decode(br));
  }

  std::vector<std::uint8_t> out;
  out.reserve(untrusted_reserve_hint(raw_size, payload.size()));
  std::size_t lit_pos = 0;
  // No u32 value lands in bucket 32 or above, and bucket_base(b) shifts a
  // 32-bit one by b, so a corrupt table's bucket symbols are checked first.
  auto bucket = [&](const HuffmanDecoder& dec) {
    const std::uint32_t b = dec.decode(br);
    if (b >= 32) throw std::runtime_error("zstd_like: bad length bucket");
    return b;
  };
  for (std::size_t s = 0; s < n_seq; ++s) {
    std::uint32_t bl = bucket(ll_dec);
    std::uint32_t lit_len =
        bucket_base(bl) + static_cast<std::uint32_t>(br.read_bits(static_cast<int>(bl)));
    std::uint32_t bm = bucket(ml_dec);
    std::uint32_t match_len =
        bucket_base(bm) + static_cast<std::uint32_t>(br.read_bits(static_cast<int>(bm)));
    std::uint32_t bo = bucket(of_dec);
    std::uint32_t offset =
        bucket_base(bo) + static_cast<std::uint32_t>(br.read_bits(static_cast<int>(bo)));

    // Wrap-proof shape: lit_pos <= literals.size() and out.size() <= raw_size
    // are loop invariants, so the subtractions cannot underflow; summing the
    // two untrusted u32 lengths (lit_len + match_len) is never done directly.
    if (lit_len > literals.size() - lit_pos) {
      throw std::runtime_error("zstd_like: literal overrun");
    }
    if (lit_len > raw_size - out.size() ||
        match_len > raw_size - out.size() - lit_len) {
      throw std::runtime_error("zstd_like: output overrun");
    }
    out.insert(out.end(), literals.begin() + lit_pos,
               literals.begin() + lit_pos + lit_len);
    lit_pos += lit_len;

    if (match_len > 0) {
      if (offset == 0 || offset > out.size()) {
        throw std::runtime_error("zstd_like: bad offset");
      }
      std::size_t src = out.size() - offset;
      for (std::uint32_t i = 0; i < match_len; ++i) {
        out.push_back(out[src + i]);
      }
    }
  }
  if (out.size() != raw_size) {
    throw std::runtime_error("zstd_like: output size mismatch");
  }
  return out;
}

}  // namespace deepsz::lossless::raw
