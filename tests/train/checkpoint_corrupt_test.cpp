// Corruption/fuzz tests for the DSZK checkpoint container: a mangled file
// must always surface as std::runtime_error — never a crash, an escape of
// another exception type, or an allocation sized by an attacker-controlled
// field. Mirrors the container footer suite; the *corrupt* filename puts it
// in the fuzz label the sanitizer CI job runs.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/weight_synthesis.h"
#include "train/checkpoint.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace deepsz::train {
namespace {

constexpr std::size_t kFooterRowBytes = 8 + 8 + 4;
constexpr std::size_t kFooterTailBytes = 4 + 4 + 4;

// A small but fully featured checkpoint: one masked fc pair, one flat
// stream, lossless codecs so every byte is deterministic.
std::vector<std::uint8_t> valid_checkpoint() {
  sparse::PrunedLayer fc =
      data::synthesize_pruned_layer("fc1", 16, 32, 0.25, 1234);
  TrainingState state;
  state.model = "corrupt-net";
  state.seed = 77;
  state.step = 10;
  state.samples_seen = 640;

  CheckpointStream data;
  data.name = "fc1.data";
  data.kind = StreamKind::kFcData;
  data.masked = true;
  data.rows = 16;
  data.cols = 32;
  data.floats = fc.data;
  state.streams.push_back(data);

  CheckpointStream index;
  index.name = "fc1.index";
  index.kind = StreamKind::kFcIndex;
  index.rows = 16;
  index.cols = 32;
  index.bytes = fc.index;
  state.streams.push_back(index);

  CheckpointStream bias;
  bias.name = "fc1.bias";
  bias.kind = StreamKind::kFloats;
  for (int i = 0; i < 16; ++i) bias.floats.push_back(0.5f - 0.01f * i);
  state.streams.push_back(bias);

  CheckpointOptions options;
  options.data_codec = "f32";
  options.lossless_codec = "zstd";
  options.default_eb = 0.0;
  return write_checkpoint(state, options);
}

// Recomputes the body CRC and the footer-table CRC after a forgery so the
// mutation reaches semantic validation instead of dying at a checksum.
std::vector<std::uint8_t> resign(std::vector<std::uint8_t> b) {
  const std::size_t tail = b.size() - kFooterTailBytes;
  std::uint32_t n;
  std::memcpy(&n, b.data() + tail, 4);
  const std::size_t table_bytes = std::size_t{n} * kFooterRowBytes;
  const std::size_t table_start = b.size() - kFooterTailBytes - table_bytes;
  const std::size_t body_crc_off = table_start - 4;
  std::uint32_t body = util::crc32({b.data(), body_crc_off});
  std::memcpy(b.data() + body_crc_off, &body, 4);
  std::uint32_t table = util::crc32({b.data() + table_start, table_bytes + 4});
  std::memcpy(b.data() + tail + 4, &table, 4);
  return b;
}

// Byte offsets of the fixed-width header fields of one record, derived by
// walking backward from the payload offset the reader parsed. Writer layout
// per record: name, kind u8, flags u8, rows i64, cols i64, count u64,
// codec string, eb f64, payload_len u64, payload_crc u32, payload.
struct RecordFields {
  std::size_t kind, flags, rows, count, eb, payload_len;
};

RecordFields locate(const std::vector<std::uint8_t>& bytes,
                    const std::string& name) {
  CheckpointReader reader(bytes);
  std::size_t idx = 0;
  for (; idx < reader.num_streams(); ++idx) {
    if (reader.entries()[idx].name == name) break;
  }
  const CheckpointEntry& e = reader.entries()[idx];
  const std::size_t payload = static_cast<std::size_t>(e.offset);
  RecordFields f;
  f.payload_len = payload - 4 - 8;
  f.eb = f.payload_len - 8;
  f.count = f.eb - (8 + e.codec.size()) - 8;  // strings are u64-prefixed
  f.rows = f.count - 8 - 8;
  f.flags = f.rows - 1;
  f.kind = f.flags - 1;
  return f;
}

TEST(CheckpointCorrupt, EveryPrefixTruncationThrows) {
  const auto bytes = valid_checkpoint();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(read_checkpoint(cut), std::runtime_error) << "len " << len;
  }
}

TEST(CheckpointCorrupt, EveryByteFlipThrows) {
  const auto bytes = valid_checkpoint();
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    auto bad = bytes;
    bad[pos] ^= 0xFF;
    EXPECT_THROW(read_checkpoint(bad), std::runtime_error) << "pos " << pos;
  }
}

TEST(CheckpointCorrupt, ForgedKindAndFlagsAreRejected) {
  const auto bytes = valid_checkpoint();
  const RecordFields f = locate(bytes, "fc1.data");

  auto bad_kind = bytes;
  bad_kind[f.kind] = 7;
  EXPECT_THROW(CheckpointReader{resign(bad_kind)}, std::runtime_error);

  auto bad_flags = bytes;
  bad_flags[f.flags] = 0x02;  // only bit0 (masked) is defined
  EXPECT_THROW(CheckpointReader{resign(bad_flags)}, std::runtime_error);
}

TEST(CheckpointCorrupt, ForgedShapeAndCountAreRejected) {
  const auto bytes = valid_checkpoint();
  const RecordFields f = locate(bytes, "fc1.data");

  auto zero_rows = bytes;
  std::memset(zero_rows.data() + f.rows, 0, 8);  // fc stream needs rows > 0
  EXPECT_THROW(CheckpointReader{resign(zero_rows)}, std::runtime_error);

  auto neg_rows = bytes;
  std::memset(neg_rows.data() + f.rows, 0xFF, 8);  // rows = -1
  EXPECT_THROW(CheckpointReader{resign(neg_rows)}, std::runtime_error);

  // A forged element count above the cap must be rejected at parse time,
  // before any decode allocates count-proportional memory.
  auto huge_count = bytes;
  std::uint64_t huge = (1ull << 32) + 1;
  std::memcpy(huge_count.data() + f.count, &huge, 8);
  EXPECT_THROW(CheckpointReader{resign(huge_count)}, std::runtime_error);

  // A plausible-but-wrong count passes parsing and dies in decode_stream's
  // element-count cross-check instead of returning short data.
  auto off_by_one = bytes;
  std::uint64_t count;
  std::memcpy(&count, off_by_one.data() + f.count, 8);
  ++count;
  std::memcpy(off_by_one.data() + f.count, &count, 8);
  const auto resigned = resign(off_by_one);  // the reader views, not owns
  CheckpointReader reader(resigned);
  EXPECT_THROW(reader.decode_stream("fc1.data"), std::runtime_error);
}

TEST(CheckpointCorrupt, ForgedErrorBoundAndPayloadLengthAreRejected) {
  const auto bytes = valid_checkpoint();
  const RecordFields f = locate(bytes, "fc1.data");

  auto nan_eb = bytes;
  const double nan = std::nan("");
  std::memcpy(nan_eb.data() + f.eb, &nan, 8);
  EXPECT_THROW(CheckpointReader{resign(nan_eb)}, std::runtime_error);

  auto neg_eb = bytes;
  const double neg = -1.0;
  std::memcpy(neg_eb.data() + f.eb, &neg, 8);
  EXPECT_THROW(CheckpointReader{resign(neg_eb)}, std::runtime_error);

  // Payload length claiming bytes past the end of the file: the reader must
  // throw runtime_error, not let the bounds check escape as out_of_range.
  auto overrun = bytes;
  std::uint64_t way_past = bytes.size() * 2;
  std::memcpy(overrun.data() + f.payload_len, &way_past, 8);
  EXPECT_THROW(CheckpointReader{resign(overrun)}, std::runtime_error);

  // Length landing inside the footer: records no longer meet the table.
  auto into_footer = bytes;
  std::uint64_t len;
  std::memcpy(&len, into_footer.data() + f.payload_len, 8);
  len += 8;
  std::memcpy(into_footer.data() + f.payload_len, &len, 8);
  EXPECT_THROW(CheckpointReader{resign(into_footer)}, std::runtime_error);
}

TEST(CheckpointCorrupt, ForgedCodecSpecIsRejectedAsRuntimeError) {
  // The codec name inside the file is untrusted input; an unknown spec must
  // not escape as the registry's invalid_argument.
  sparse::PrunedLayer fc = data::synthesize_pruned_layer("fc1", 8, 8, 0.5, 9);
  TrainingState state;
  state.model = "m";
  CheckpointStream s;
  s.name = "fc1.bias";
  s.kind = StreamKind::kFloats;
  s.floats = {1.0f, 2.0f};
  state.streams.push_back(s);
  CheckpointOptions options;
  options.lossless_codec = "zstd";
  auto bytes = write_checkpoint(state, options);

  // "zstd" -> "qstd" (same length, bogus name) keeps every offset stable;
  // the first occurrence is the codec field of the first (only) record.
  const std::string needle = "zstd";
  auto it = std::search(bytes.begin(), bytes.end(), needle.begin(),
                        needle.end());
  ASSERT_NE(it, bytes.end());
  *it = 'q';
  const auto resigned = resign(std::move(bytes));  // the reader views, not owns
  CheckpointReader reader(resigned);
  EXPECT_THROW(reader.decode_stream("fc1.bias"), std::runtime_error);
}

TEST(CheckpointCorrupt, FooterForgeriesAreRejected) {
  const auto bytes = valid_checkpoint();
  const std::size_t tail = bytes.size() - kFooterTailBytes;

  // Footer count far beyond what the file could hold: rejected by the
  // physical-size cap before the count sizes any allocation.
  auto huge_n = bytes;
  std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(huge_n.data() + tail, &huge, 4);
  EXPECT_THROW(CheckpointReader{huge_n}, std::runtime_error);

  // Footer count that still fits the file but disagrees with the header.
  auto off_n = bytes;
  std::uint32_t n;
  std::memcpy(&n, off_n.data() + tail, 4);
  --n;
  std::memcpy(off_n.data() + tail, &n, 4);
  EXPECT_THROW(CheckpointReader{resign(off_n)}, std::runtime_error);

  // A footer row that no longer matches its record header: the seek index
  // must agree with the records it points at.
  auto skewed = bytes;
  std::uint32_t rows;
  std::memcpy(&rows, skewed.data() + tail, 4);
  const std::size_t table_start =
      skewed.size() - kFooterTailBytes - std::size_t{rows} * kFooterRowBytes;
  std::uint64_t offset;
  std::memcpy(&offset, skewed.data() + table_start, 8);
  ++offset;
  std::memcpy(skewed.data() + table_start, &offset, 8);
  EXPECT_THROW(CheckpointReader{resign(skewed)}, std::runtime_error);
}

TEST(CheckpointCorrupt, DuplicateStreamNamesAreRejected) {
  TrainingState state;
  state.model = "m";
  CheckpointStream s;
  s.name = "twin";
  s.kind = StreamKind::kFloats;
  s.floats = {1.0f};
  state.streams.push_back(s);
  state.streams.push_back(s);
  CheckpointOptions options;
  options.lossless_codec = "zstd";
  EXPECT_THROW(CheckpointReader{write_checkpoint(state, options)},
               std::runtime_error);
}

TEST(CheckpointCorrupt, RandomMutationsNeverCrash) {
  const auto bytes = valid_checkpoint();
  util::Pcg32 rng(0xc0ffee);
  int survived = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    auto bad = bytes;
    // 1-8 random byte smashes, sometimes followed by a truncation.
    const int edits = 1 + static_cast<int>(rng.bounded(8));
    for (int i = 0; i < edits; ++i) {
      bad[rng.bounded(static_cast<std::uint32_t>(bad.size()))] =
          static_cast<std::uint8_t>(rng.bounded(256));
    }
    if (rng.bounded(4) == 0) {
      bad.resize(rng.bounded(static_cast<std::uint32_t>(bad.size() + 1)));
    }
    try {
      TrainingState state = read_checkpoint(bad);
      // Vanishingly rare (mutations must miss every checksum), but legal:
      // the parse succeeded, so the state must be internally consistent.
      ++survived;
      EXPECT_LE(state.streams.size(), 3u);
    } catch (const std::runtime_error&) {
      // expected: detected corruption
    }
  }
  // The suite's real assertion is "no crash / no foreign exception"; the
  // counter just documents that survivors are the exception, not the rule.
  EXPECT_LE(survived, 5);
}

}  // namespace
}  // namespace deepsz::train
