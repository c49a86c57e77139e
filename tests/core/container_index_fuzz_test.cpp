// Corruption/fuzz tests for the seekable footer index: a mangled footer
// must always surface as std::runtime_error — never a crash, an escape of
// another exception type, or an allocation sized by an attacker-controlled
// field. (The satellite ASan+UBSan CI job runs this suite too.)
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "tests/core/container_footer.h"
#include "util/byte_io.h"
#include "util/crc32.h"

namespace deepsz::core {
namespace {

std::vector<sparse::PrunedLayer> some_layers(int n = 2) {
  std::vector<sparse::PrunedLayer> layers;
  for (int i = 0; i < n; ++i) {
    layers.push_back(data::synthesize_pruned_layer(
        "fc" + std::to_string(6 + i), 48, 96, 0.2, 31 + i));
  }
  return layers;
}

std::vector<std::uint8_t> indexed_container() {
  return encode_model(some_layers(), {}, ContainerOptions{}).bytes;
}

std::vector<std::uint8_t> indexless_container() {
  return strip_footer(indexed_container());
}

/// Appends a hand-built footer (count + entries + trailer) to an indexless
/// container, with a correct CRC — so the tests reach the semantic
/// validation behind the checksum.
std::vector<std::uint8_t> with_footer(
    std::vector<std::uint8_t> bytes, std::uint32_t count,
    const std::vector<ContainerEntry>& entries) {
  std::vector<std::uint8_t> body;
  util::put_le<std::uint32_t>(body, count);
  for (const auto& e : entries) {
    util::put_string(body, e.name);
    util::put_le<std::int64_t>(body, e.rows);
    util::put_le<std::int64_t>(body, e.cols);
    util::put_le<double>(body, e.eb);
    util::put_string(body, e.data.codec);
    util::put_le<std::uint64_t>(body, e.data.offset);
    util::put_le<std::uint64_t>(body, e.data.length);
    util::put_le<std::uint32_t>(body, e.data.crc);
    util::put_string(body, e.index.codec);
    util::put_le<std::uint64_t>(body, e.index.offset);
    util::put_le<std::uint64_t>(body, e.index.length);
    util::put_le<std::uint32_t>(body, e.index.crc);
    util::put_le<std::uint64_t>(body, e.bias_offset);
    util::put_le<std::uint64_t>(body, e.bias_count);
  }
  std::vector<std::uint8_t> out = std::move(bytes);
  util::put_bytes(out, body);
  util::put_le<std::uint32_t>(out, util::crc32(body));
  util::put_le<std::uint64_t>(out, body.size());
  util::put_le<std::uint32_t>(out, wire::kFooterMagic);
  return out;
}

/// The scanned directory of a valid container — the raw material the bad
/// footers below are built from.
std::vector<ContainerEntry> true_entries(
    const std::vector<std::uint8_t>& bytes) {
  return ContainerReader(bytes).entries();
}

TEST(ContainerIndexFuzz, EveryTruncationFailsCleanlyExceptExactRecordsEnd) {
  auto bytes = indexed_container();
  // Recover the records/footer boundary from the trailer.
  std::uint64_t body_len = 0;
  std::memcpy(&body_len, bytes.data() + bytes.size() - 12, 8);
  const std::size_t records_end =
      bytes.size() - 16 - static_cast<std::size_t>(body_len);

  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    if (keep == records_end) {
      // Exactly the records: indistinguishable from (and as valid as) an
      // indexless container.
      ContainerReader reader(cut);
      EXPECT_FALSE(reader.has_footer_index());
      continue;
    }
    try {
      ContainerReader reader(cut);
      FAIL() << "truncation to " << keep << "/" << bytes.size()
             << " not detected";
    } catch (const std::runtime_error&) {
      // required failure mode
    }
  }
}

TEST(ContainerIndexFuzz, EveryFooterByteFlipFailsCleanly) {
  auto bytes = indexed_container();
  std::uint64_t body_len = 0;
  std::memcpy(&body_len, bytes.data() + bytes.size() - 12, 8);
  const std::size_t records_end =
      bytes.size() - 16 - static_cast<std::size_t>(body_len);

  for (std::size_t pos = records_end; pos < bytes.size(); ++pos) {
    auto corrupt = bytes;
    corrupt[pos] ^= 0xFF;
    try {
      ContainerReader reader(corrupt);
      // A flip that erases the trailer magic leaves "trailing garbage",
      // which must also throw; reaching here means the flip went unnoticed.
      FAIL() << "footer byte flip at " << pos << " not detected";
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(ContainerIndexFuzz, StreamOffsetPastEofRejected) {
  auto base = indexless_container();
  auto entries = true_entries(base);
  entries[0].data.offset = base.size() + 1024;
  auto bad = with_footer(base, 2, entries);
  try {
    ContainerReader reader(bad);
    FAIL() << "offset past EOF accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("extent"), std::string::npos)
        << e.what();
  }
}

TEST(ContainerIndexFuzz, StreamLengthOverflowRejected) {
  auto base = indexless_container();
  auto entries = true_entries(base);
  // offset + length wraps std::uint64_t; the checked form must not.
  entries[1].index.offset = ~std::uint64_t{0} - 8;
  entries[1].index.length = 64;
  EXPECT_THROW(ContainerReader{with_footer(base, 2, entries)},
               std::runtime_error);
}

TEST(ContainerIndexFuzz, StreamReachingIntoFooterRejected) {
  auto base = indexless_container();
  auto entries = true_entries(base);
  // Extends to the last byte of the file — past the records area.
  entries[0].data.length =
      base.size() - entries[0].data.offset + /*future footer*/ 64;
  EXPECT_THROW(ContainerReader{with_footer(base, 2, entries)},
               std::runtime_error);
}

TEST(ContainerIndexFuzz, OverlappingEntriesRejected) {
  auto base = indexless_container();
  auto entries = true_entries(base);
  entries[1].data.offset = entries[0].data.offset + 1;  // overlaps entry 0
  entries[1].data.length = entries[0].data.length;
  try {
    ContainerReader reader(with_footer(base, 2, entries));
    FAIL() << "overlapping extents accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos)
        << e.what();
  }
}

TEST(ContainerIndexFuzz, DuplicateLayerNamesRejected) {
  auto base = indexless_container();
  auto entries = true_entries(base);
  entries[1].name = entries[0].name;
  try {
    ContainerReader reader(with_footer(base, 2, entries));
    FAIL() << "duplicate names accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
  }
}

TEST(ContainerIndexFuzz, IndexCountMismatchRejected) {
  auto base = indexless_container();
  auto entries = true_entries(base);
  entries.pop_back();  // footer lists 1 layer, header says 2
  try {
    ContainerReader reader(with_footer(base, 1, entries));
    FAIL() << "count mismatch accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("count mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(ContainerIndexFuzz, ImplausibleEntryCountRejectedBeforeAllocation) {
  // Header forged to agree with the footer's huge count: the count/size
  // plausibility check is all that stands before a vector::reserve.
  auto base = indexless_container();
  const std::uint32_t huge = 0x7fffffff;
  std::memcpy(base.data() + 8, &huge, 4);  // header layer count
  auto bad = with_footer(std::move(base), huge, {});
  EXPECT_THROW(ContainerReader{bad}, std::runtime_error);
}

TEST(ContainerIndexFuzz, BiasExtentPastEofRejected) {
  auto base = indexless_container();
  auto entries = true_entries(base);
  entries[0].bias_offset = 16;
  entries[0].bias_count = ~std::uint64_t{0} / 8;
  EXPECT_THROW(ContainerReader{with_footer(base, 2, entries)},
               std::runtime_error);
}

TEST(ContainerIndexFuzz, BiasCountMultiplyWraparoundRejected) {
  // bias_count * sizeof(float) == 2^64 would wrap to a 0-byte extent; the
  // reader must reject the count before multiplying.
  auto base = indexless_container();
  auto entries = true_entries(base);
  entries[0].bias_offset = 16;
  entries[0].bias_count = std::uint64_t{1} << 62;
  EXPECT_THROW(ContainerReader{with_footer(base, 2, entries)},
               std::runtime_error);
}

TEST(ContainerIndexFuzz, FooterBodyTrailingBytesRejected) {
  auto base = indexless_container();
  auto entries = true_entries(base);
  // Valid entries, but the body is padded: r.done() must fail.
  std::vector<std::uint8_t> body;
  util::put_le<std::uint32_t>(body, 2);
  for (const auto& e : entries) {
    util::put_string(body, e.name);
    util::put_le<std::int64_t>(body, e.rows);
    util::put_le<std::int64_t>(body, e.cols);
    util::put_le<double>(body, e.eb);
    util::put_string(body, e.data.codec);
    util::put_le<std::uint64_t>(body, e.data.offset);
    util::put_le<std::uint64_t>(body, e.data.length);
    util::put_le<std::uint32_t>(body, e.data.crc);
    util::put_string(body, e.index.codec);
    util::put_le<std::uint64_t>(body, e.index.offset);
    util::put_le<std::uint64_t>(body, e.index.length);
    util::put_le<std::uint32_t>(body, e.index.crc);
    util::put_le<std::uint64_t>(body, e.bias_offset);
    util::put_le<std::uint64_t>(body, e.bias_count);
  }
  body.push_back(0xAB);  // the padding under test
  auto bad = base;
  util::put_bytes(bad, body);
  util::put_le<std::uint32_t>(bad, util::crc32(body));
  util::put_le<std::uint64_t>(bad, body.size());
  util::put_le<std::uint32_t>(bad, wire::kFooterMagic);
  EXPECT_THROW(ContainerReader{bad}, std::runtime_error);
}

TEST(ContainerIndexFuzz, FooterLengthBeyondContainerRejected) {
  auto bytes = indexed_container();
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  std::memcpy(bytes.data() + bytes.size() - 12, &huge, 8);
  EXPECT_THROW(ContainerReader{bytes}, std::runtime_error);
}

// The random-access path and the full decoder must agree on rejection: a
// container ContainerReader refuses is not quietly accepted by decode_model.
TEST(ContainerIndexFuzz, DecodeModelAlsoRejectsMangledFooters) {
  auto bytes = indexed_container();
  std::uint64_t body_len = 0;
  std::memcpy(&body_len, bytes.data() + bytes.size() - 12, 8);
  const std::size_t records_end =
      bytes.size() - 16 - static_cast<std::size_t>(body_len);
  for (std::size_t pos : {records_end, records_end + body_len / 2,
                          bytes.size() - 10}) {
    auto corrupt = bytes;
    corrupt[pos] ^= 0xFF;
    EXPECT_THROW(decode_model(corrupt), std::runtime_error) << pos;
  }
}

}  // namespace
}  // namespace deepsz::core
