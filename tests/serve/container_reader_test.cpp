// ContainerReader: seekable footer index, indexless fallback scan, and the
// core serving guarantee — decoding one layer touches no other layer's
// stream bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codec/registry.h"
#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "lossless/codec.h"
#include "sz/sz.h"
#include "tests/core/container_footer.h"
#include "util/byte_io.h"
#include "util/crc32.h"

namespace deepsz::core {
namespace {

std::vector<sparse::PrunedLayer> some_layers(int n = 3) {
  std::vector<sparse::PrunedLayer> layers;
  for (int i = 0; i < n; ++i) {
    layers.push_back(data::synthesize_pruned_layer(
        "fc" + std::to_string(6 + i), 80 + 8 * i, 192, 0.12 + 0.02 * i,
        11 + i));
  }
  return layers;
}

TEST(ContainerReader, FooterIndexMatchesEncodeStats) {
  auto layers = some_layers();
  std::map<std::string, std::vector<float>> biases = {
      {"fc6", {0.25f, -1.0f, 3.5f}}};
  auto model = encode_model(layers, {}, ContainerOptions{}, biases);

  ContainerReader reader(model.bytes);
  EXPECT_TRUE(reader.has_footer_index());
  ASSERT_EQ(reader.num_layers(), layers.size());
  EXPECT_EQ(reader.payload_bytes(), model.compressed_payload_bytes());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto& e = reader.entry(i);
    EXPECT_EQ(e.name, model.stats[i].layer);
    EXPECT_EQ(e.rows, layers[i].rows);
    EXPECT_EQ(e.cols, layers[i].cols);
    EXPECT_DOUBLE_EQ(e.eb, model.stats[i].eb);
    EXPECT_EQ(e.data.codec, model.stats[i].data_codec);
    EXPECT_EQ(e.index.codec, model.stats[i].index_codec);
    EXPECT_EQ(e.data.length, model.stats[i].data_bytes);
    EXPECT_EQ(e.index.length, model.stats[i].index_bytes);
  }
  EXPECT_EQ(reader.entry("fc6").bias_count, 3u);
  EXPECT_EQ(reader.decode_bias("fc6"),
            (std::vector<float>{0.25f, -1.0f, 3.5f}));
  EXPECT_TRUE(reader.decode_bias("fc7").empty());
  EXPECT_TRUE(reader.contains("fc7"));
  EXPECT_FALSE(reader.contains("fc99"));
  EXPECT_THROW(reader.entry("fc99"), std::out_of_range);
}

TEST(ContainerReader, IndexlessContainerScansToSameDirectory) {
  auto layers = some_layers();
  auto indexed = encode_model(layers, {}).bytes;
  auto indexless = strip_footer(indexed);
  ASSERT_LT(indexless.size(), indexed.size());  // footer really was appended

  ContainerReader ra(indexed);
  ContainerReader rb(indexless);
  EXPECT_TRUE(ra.has_footer_index());
  EXPECT_FALSE(rb.has_footer_index());
  ASSERT_EQ(ra.num_layers(), rb.num_layers());
  for (std::size_t i = 0; i < ra.num_layers(); ++i) {
    EXPECT_EQ(ra.entry(i).name, rb.entry(i).name);
    EXPECT_EQ(ra.entry(i).data.offset, rb.entry(i).data.offset);
    EXPECT_EQ(ra.entry(i).data.length, rb.entry(i).data.length);
    EXPECT_EQ(ra.entry(i).data.crc, rb.entry(i).data.crc);
    EXPECT_EQ(ra.entry(i).index.offset, rb.entry(i).index.offset);
    EXPECT_EQ(ra.entry(i).index.crc, rb.entry(i).index.crc);
  }
}

TEST(ContainerReader, DecodedLayerMatchesFullDecode) {
  auto layers = some_layers();
  std::map<std::string, double> ebs = {{"fc6", 1e-3}, {"fc7", 5e-3}};
  auto model = encode_model(layers, ebs, ContainerOptions{});
  auto full = decode_model(model.bytes);

  ContainerReader reader(model.bytes);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    auto one = reader.decode_layer(layers[i].name);
    EXPECT_EQ(one.data, full.layers[i].data);
    EXPECT_EQ(one.index, full.layers[i].index);
    EXPECT_EQ(one.rows, full.layers[i].rows);
    EXPECT_EQ(one.cols, full.layers[i].cols);
  }
}

// The acceptance-criteria property: single-layer decode must not touch any
// other layer's stream bytes. Corrupt every byte of every OTHER layer's
// streams; the target layer must still decode (and the others must fail).
void expect_random_access_isolation(bool with_footer) {
  auto layers = some_layers(3);
  auto bytes = encode_model(layers, {}).bytes;
  if (!with_footer) bytes = strip_footer(std::move(bytes));

  ContainerReader pristine(bytes);
  auto corrupt_bytes = bytes;
  for (const char* victim : {"fc6", "fc8"}) {
    const auto& e = pristine.entry(victim);
    for (const auto* s : {&e.data, &e.index}) {
      for (std::uint64_t b = 0; b < s->length; ++b) {
        corrupt_bytes[static_cast<std::size_t>(s->offset + b)] ^= 0xA5;
      }
    }
  }

  ContainerReader reader(corrupt_bytes);
  EXPECT_EQ(reader.has_footer_index(), with_footer);
  auto decoded = reader.decode_layer("fc7");
  EXPECT_EQ(decoded.index, layers[1].index);
  EXPECT_EQ(decoded.data.size(), layers[1].data.size());
  EXPECT_THROW(reader.decode_layer("fc6"), std::runtime_error);
  EXPECT_THROW(reader.decode_layer("fc8"), std::runtime_error);
}

TEST(ContainerReader, SingleLayerDecodeIgnoresOtherLayersIndexed) {
  expect_random_access_isolation(/*with_footer=*/true);
}

TEST(ContainerReader, SingleLayerDecodeIgnoresOtherLayersScanned) {
  expect_random_access_isolation(/*with_footer=*/false);
}

namespace {

/// Identity codec that counts decode() invocations — proves random access
/// runs exactly one codec per requested layer.
class CountingCodec : public codec::ByteCodec {
 public:
  static std::atomic<int>& decodes() {
    static std::atomic<int> count{0};
    return count;
  }
  std::string name() const override { return "countdec-reader"; }
  std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> data) const override {
    std::vector<std::uint8_t> out;
    out.reserve(data.size() + 1);
    out.push_back(0xCD);
    out.insert(out.end(), data.begin(), data.end());
    return out;
  }
  std::vector<std::uint8_t> decode(
      std::span<const std::uint8_t> frame) const override {
    if (frame.empty() || frame[0] != 0xCD) {
      throw std::runtime_error("countdec-reader: bad frame");
    }
    ++decodes();
    return std::vector<std::uint8_t>(frame.begin() + 1, frame.end());
  }
};

void ensure_counting_codec() {
  auto& reg = codec::CodecRegistry::instance();
  if (reg.has_byte("countdec-reader")) return;
  codec::CodecInfo info;
  info.name = "countdec-reader";
  info.summary = "decode-counting identity codec (tests)";
  reg.register_byte(info, [](const codec::Options& opts) {
    opts.check_known({});
    return std::make_shared<CountingCodec>();
  });
}

}  // namespace

TEST(ContainerReader, SingleLayerDecodeRunsExactlyOneIndexCodec) {
  ensure_counting_codec();
  auto layers = some_layers(4);
  ContainerOptions opts;
  opts.index_codec = "countdec-reader";
  auto model = encode_model(layers, {}, opts);

  ContainerReader reader(model.bytes);
  CountingCodec::decodes() = 0;
  auto decoded = reader.decode_layer("fc8");
  EXPECT_EQ(CountingCodec::decodes(), 1);
  EXPECT_EQ(decoded.index, layers[2].index);
}

// Frozen pre-registry layout: ContainerReader must scan legacy version-2
// containers (no codec specs, no footer) byte-compatibly with decode_model.
TEST(ContainerReader, ReadsLegacyVersion2Containers) {
  auto layers = some_layers(2);
  const double eb = 1e-3;
  std::vector<std::uint8_t> out;
  util::put_le<std::uint32_t>(out, 0x435a5344);
  util::put_le<std::uint32_t>(out, 2);
  util::put_le<std::uint32_t>(out, static_cast<std::uint32_t>(layers.size()));
  for (const auto& layer : layers) {
    sz::SzParams params;
    params.mode = sz::ErrorBoundMode::kAbs;
    params.error_bound = eb;
    auto data_stream = sz::compress(layer.data, params);
    auto index_stream =
        lossless::compress(lossless::CodecId::kZstdLike, layer.index);
    util::put_string(out, layer.name);
    util::put_le<std::int64_t>(out, layer.rows);
    util::put_le<std::int64_t>(out, layer.cols);
    util::put_le<double>(out, eb);
    util::put_le<std::uint64_t>(out, data_stream.size());
    util::put_le<std::uint32_t>(out, util::crc32(data_stream));
    util::put_bytes(out, data_stream);
    util::put_le<std::uint64_t>(out, index_stream.size());
    util::put_le<std::uint32_t>(out, util::crc32(index_stream));
    util::put_bytes(out, index_stream);
    util::put_le<std::uint64_t>(out, 0);  // no bias
  }

  ContainerReader reader(out);
  EXPECT_FALSE(reader.has_footer_index());
  ASSERT_EQ(reader.num_layers(), 2u);
  EXPECT_TRUE(reader.entry("fc6").data.codec.empty());
  auto decoded = reader.decode_layer("fc7");
  EXPECT_EQ(decoded.index, layers[1].index);
}

}  // namespace
}  // namespace deepsz::core
