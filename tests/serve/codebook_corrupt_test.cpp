// Corruption/fuzz tests for the compressed-domain ("dc" codebook) decode
// path: a forged or damaged payload must always surface as a std::exception
// (std::runtime_error for semantic corruption, std::out_of_range from the
// bounds-checked reader for truncation) — never a crash, an out-of-bounds
// access, or an allocation sized by an attacker-controlled field. The
// ASan+UBSan CI job runs this suite too.
//
// Two attack surfaces:
//   - the bare DCQV stream through baselines::dc_decode_quantized (the
//     entry point the codebook-CSR build trusts for ids and centroids);
//   - a whole container through a native-form ModelStore::get, covering the
//     delta-walk validation (zero delta, matrix overrun, id/delta count
//     mismatch) and the stream CRC gate in front of it.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "baselines/codec_adapters.h"
#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "lossless/entropy.h"
#include "serve/model_store.h"
#include "tests/core/container_footer.h"
#include "util/byte_io.h"
#include "util/crc32.h"

namespace deepsz::serve {
namespace {

constexpr std::uint32_t kDcMagic = 0x56514344;      // "DCQV"

/// A well-formed DCQV stream: magic, count, k centroids, Huffman ids.
std::vector<std::uint8_t> good_dc_stream(std::size_t count = 64,
                                         std::uint32_t k = 4) {
  std::vector<std::uint32_t> ids(count);
  for (std::size_t i = 0; i < count; ++i) {
    ids[i] = static_cast<std::uint32_t>(i % k);
  }
  auto huff = lossless::huffman_encode_symbols(ids, k);
  std::vector<std::uint8_t> out;
  util::put_le<std::uint32_t>(out, kDcMagic);
  util::put_le<std::uint64_t>(out, count);
  util::put_le<std::uint32_t>(out, k);
  for (std::uint32_t c = 0; c < k; ++c) {
    util::put_le<float>(out, 0.1f * static_cast<float>(c + 1));
  }
  util::put_le<std::uint64_t>(out, huff.size());
  util::put_bytes(out, huff);
  return out;
}

/// The required failure mode: a typed std::exception, nothing else.
void expect_clean_failure(const std::vector<std::uint8_t>& stream,
                          const std::string& what) {
  try {
    baselines::dc_decode_quantized(stream);
    FAIL() << what << ": corruption not detected";
  } catch (const std::runtime_error&) {
  } catch (const std::out_of_range&) {
  }
}

TEST(CodebookCorrupt, GoodStreamRoundTrips) {
  auto q = baselines::dc_decode_quantized(good_dc_stream(64, 4));
  ASSERT_EQ(q.ids.size(), 64u);
  ASSERT_EQ(q.codebook.size(), 4u);
  for (std::size_t i = 0; i < q.ids.size(); ++i) {
    EXPECT_EQ(q.ids[i], i % 4);
    EXPECT_LT(q.ids[i], q.codebook.size());
  }
}

TEST(CodebookCorrupt, BadMagicRejected) {
  auto bad = good_dc_stream();
  bad[0] ^= 0xFF;
  EXPECT_THROW(baselines::dc_decode_quantized(bad), std::runtime_error);
}

TEST(CodebookCorrupt, ZeroCountDecodesEmpty) {
  std::vector<std::uint8_t> s;
  util::put_le<std::uint32_t>(s, kDcMagic);
  util::put_le<std::uint64_t>(s, 0);
  auto q = baselines::dc_decode_quantized(s);
  EXPECT_TRUE(q.ids.empty());
  EXPECT_TRUE(q.codebook.empty());
}

TEST(CodebookCorrupt, ImplausibleCountRejectedBeforeAllocation) {
  // A 20-byte stream claiming 2^40 elements: the count/bit-length
  // plausibility check is all that stands before a giant vector resize.
  for (std::uint64_t evil :
       {std::uint64_t{1} << 40, ~std::uint64_t{0}, std::uint64_t{1} << 31}) {
    auto bad = good_dc_stream();
    std::memcpy(bad.data() + 4, &evil, 8);
    expect_clean_failure(bad, "count " + std::to_string(evil));
  }
}

TEST(CodebookCorrupt, CountBeyondStreamBitsRejected) {
  // count <= 8 * stream bytes is the cheapest possible encoding; anything
  // above cannot be real data.
  auto bad = good_dc_stream(64, 4);
  const std::uint64_t evil = 8 * bad.size() + 1;
  std::memcpy(bad.data() + 4, &evil, 8);
  expect_clean_failure(bad, "count beyond stream bits");
}

TEST(CodebookCorrupt, ForgedCodebookSizeRejected) {
  for (std::uint32_t evil : {0u, (1u << 16) + 1, ~0u}) {
    auto bad = good_dc_stream();
    std::memcpy(bad.data() + 12, &evil, 4);
    expect_clean_failure(bad, "k " + std::to_string(evil));
  }
}

TEST(CodebookCorrupt, OutOfRangeIdsRejected) {
  // The Huffman table legitimately encodes symbols up to 5, but the header
  // declares a 2-entry codebook: every decoded id would index past it. The
  // table-level alphabet cap must refuse before any lookup.
  std::vector<std::uint32_t> ids = {0, 1, 5, 3, 1, 0};
  auto huff = lossless::huffman_encode_symbols(ids, 6);
  std::vector<std::uint8_t> bad;
  util::put_le<std::uint32_t>(bad, kDcMagic);
  util::put_le<std::uint64_t>(bad, ids.size());
  util::put_le<std::uint32_t>(bad, 2);  // k = 2 < max symbol
  util::put_le<float>(bad, 1.0f);
  util::put_le<float>(bad, 2.0f);
  util::put_le<std::uint64_t>(bad, huff.size());
  util::put_bytes(bad, huff);
  EXPECT_THROW(baselines::dc_decode_quantized(bad), std::runtime_error);
}

TEST(CodebookCorrupt, EveryTruncationFailsCleanly) {
  auto stream = good_dc_stream(48, 8);
  for (std::size_t keep = 0; keep < stream.size(); ++keep) {
    std::vector<std::uint8_t> cut(stream.begin(), stream.begin() + keep);
    expect_clean_failure(cut, "truncated to " + std::to_string(keep));
  }
}

TEST(CodebookCorrupt, HuffmanLengthFieldBeyondStreamRejected) {
  auto bad = good_dc_stream(16, 2);
  // The stream-length u64 sits after magic(4) + count(8) + k(4) + 2 floats.
  const std::size_t len_at = 4 + 8 + 4 + 2 * sizeof(float);
  const std::uint64_t evil = ~std::uint64_t{0} - 8;  // would wrap pos + n
  std::memcpy(bad.data() + len_at, &evil, 8);
  expect_clean_failure(bad, "huffman length beyond stream");
}

// ---------------------------------------------------------------------
// Container-level corruption through a native-form ModelStore: the delta
// walk and CRC gate of decode_codebook_now.
// ---------------------------------------------------------------------

ModelStoreOptions native_options() {
  ModelStoreOptions opts;
  opts.native_form = true;
  opts.build_csr = true;
  return opts;
}

core::ContainerOptions dc_container_options() {
  core::ContainerOptions copts;
  copts.data_codec = "dc:bits=4,iters=8";
  copts.index_codec = "huffman";
  return copts;
}

std::vector<std::uint8_t> dc_container_of(
    std::vector<sparse::PrunedLayer> layers) {
  return core::encode_model(layers, {}, dc_container_options()).bytes;
}

/// A hand-built PrunedLayer with an arbitrary (possibly malicious) delta
/// stream; data and index stay the same length so the encoder accepts it.
sparse::PrunedLayer forged_layer(std::vector<std::uint8_t> deltas) {
  sparse::PrunedLayer l;
  l.name = "fc1";
  l.rows = 4;
  l.cols = 8;
  l.index = std::move(deltas);
  l.data.assign(l.index.size(), 0.5f);
  return l;
}

TEST(CodebookCorrupt, ZeroPositionDeltaRejected) {
  // from_dense never emits a 0 delta (positions strictly increase); one can
  // only come from corruption and would silently duplicate a position.
  auto bytes = dc_container_of({forged_layer({5, 0, 3})});
  ModelStore store(std::move(bytes), native_options());
  try {
    store.get("fc1");
    FAIL() << "zero delta accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("zero position delta"),
              std::string::npos)
        << e.what();
  }
}

TEST(CodebookCorrupt, IndexOverrunningMatrixRejected) {
  // 4x8 matrix = 32 positions; these deltas walk far past it.
  auto bytes = dc_container_of({forged_layer({30, 30, 30})});
  ModelStore store(std::move(bytes), native_options());
  try {
    store.get("fc1");
    FAIL() << "matrix overrun accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("index overruns matrix"),
              std::string::npos)
        << e.what();
  }
}

TEST(CodebookCorrupt, DataIdCountMismatchRejected) {
  // Patch the DCQV count field down by one (re-signing the stream CRC in
  // the footer, so the tamper passes the checksum gate): the data stream
  // then decodes one fewer id than the index stream has deltas.
  auto layer = data::synthesize_pruned_layer("fc1", 8, 16, 0.3, 71);
  auto base = dc_container_of({layer});
  auto entries = core::ContainerReader(base).entries();
  ASSERT_EQ(entries.size(), 1u);
  const auto off = static_cast<std::size_t>(entries[0].data.offset);
  std::uint64_t count = 0;
  std::memcpy(&count, base.data() + off + 4, 8);
  ASSERT_GT(count, 1u);
  --count;
  std::memcpy(base.data() + off + 4, &count, 8);
  entries[0].data.crc = util::crc32(std::span<const std::uint8_t>(
      base.data() + off, static_cast<std::size_t>(entries[0].data.length)));
  ModelStore store(core::resign_footer(std::move(base), entries),
                   native_options());
  try {
    store.get("fc1");
    FAIL() << "count mismatch accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("entry count mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(CodebookCorrupt, DataStreamByteFlipCaughtByChecksum) {
  auto layer = data::synthesize_pruned_layer("fc1", 8, 16, 0.3, 72);
  auto bytes = dc_container_of({layer});
  const auto entries = core::ContainerReader(bytes).entries();
  const auto off = static_cast<std::size_t>(entries[0].data.offset);
  bytes[off + entries[0].data.length / 2] ^= 0xFF;
  ModelStore store(std::move(bytes), native_options());
  try {
    store.get("fc1");
    FAIL() << "data stream flip accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(CodebookCorrupt, WrongLengthBiasRejectedForCodebookLayer) {
  // Shrink the bias extent in a re-signed footer: the codebook path has no
  // "keep the layer's own bias" fallback, so the store must hard-refuse.
  auto layer = data::synthesize_pruned_layer("fc1", 8, 16, 0.3, 73);
  std::map<std::string, std::vector<float>> biases = {
      {"fc1", std::vector<float>(8, 0.25f)}};
  auto base =
      core::encode_model({layer}, {}, dc_container_options(), biases).bytes;
  auto entries = core::ContainerReader(base).entries();
  ASSERT_EQ(entries[0].bias_count, 8u);
  entries[0].bias_count = 7;  // truncated, but within the valid extent
  ModelStore store(core::resign_footer(std::move(base), entries),
                   native_options());
  try {
    store.get("fc1");
    FAIL() << "wrong-length bias accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bias length"), std::string::npos)
        << e.what();
  }
}

// Failure must be stable, not sticky: a store that rejected a corrupt layer
// still serves its intact layers.
TEST(CodebookCorrupt, CorruptLayerDoesNotPoisonTheStore) {
  auto good = data::synthesize_pruned_layer("good", 8, 16, 0.3, 74);
  auto bytes = dc_container_of({forged_layer({5, 0, 3}), good});
  ModelStore store(std::move(bytes), native_options());
  EXPECT_THROW(store.get("fc1"), std::runtime_error);
  auto served = store.get("good");
  ASSERT_EQ(served->form, ServingForm::kCodebookCsr);
  EXPECT_GT(served->nnz(), 0u);
  EXPECT_THROW(store.get("fc1"), std::runtime_error);  // still rejected
}

}  // namespace
}  // namespace deepsz::serve
