// Container v2: registry codec names per stream, parallel per-layer
// encode/decode, per-stream CRCs, and decode compatibility with the
// pre-registry version-2 layout and with recorded read-only specs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
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
#include "util/stats.h"

namespace deepsz::core {
namespace {

std::vector<sparse::PrunedLayer> some_layers(int n = 4) {
  std::vector<sparse::PrunedLayer> layers;
  for (int i = 0; i < n; ++i) {
    layers.push_back(data::synthesize_pruned_layer(
        "fc" + std::to_string(6 + i), 96 + 16 * i, 256, 0.1 + 0.02 * i,
        1 + i));
  }
  return layers;
}

TEST(ContainerV2, RecordsCodecSpecsInStats) {
  auto layers = some_layers(2);
  ContainerOptions opts;
  opts.data_codec = "sz:quant_bins=1024";
  opts.index_codec = "gzip";
  auto model = encode_model(layers, {}, opts);
  ASSERT_EQ(model.stats.size(), 2u);
  EXPECT_EQ(model.stats[0].data_codec, "sz:quant_bins=1024");
  EXPECT_EQ(model.stats[0].index_codec, "gzip");
  auto decoded = decode_model(model.bytes);
  EXPECT_EQ(decoded.layers[0].index, layers[0].index);
}

TEST(ContainerV2, AnyRegisteredCodecPairWorks) {
  auto layers = some_layers(2);
  std::map<std::string, double> ebs = {{"fc6", 1e-3}, {"fc7", 1e-3}};
  for (const char* data_codec : {"sz", "zfp"}) {
    for (const char* index_codec :
         {"store", "gzip", "zstd", "blosc:typesize=1"}) {
      ContainerOptions opts;
      opts.data_codec = data_codec;
      opts.index_codec = index_codec;
      auto model = encode_model(layers, ebs, opts);
      auto decoded = decode_model(model.bytes);
      ASSERT_EQ(decoded.layers.size(), 2u) << data_codec << "/" << index_codec;
      for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(decoded.layers[i].index, layers[i].index)
            << data_codec << "/" << index_codec;
        EXPECT_LE(
            util::max_abs_error(layers[i].data, decoded.layers[i].data),
            1e-3 * (1 + 1e-12))
            << data_codec << "/" << index_codec;
      }
    }
  }
}

TEST(ContainerV2, UnknownCodecSpecThrows) {
  auto layers = some_layers(1);
  ContainerOptions opts;
  opts.data_codec = "nope";
  EXPECT_THROW(encode_model(layers, {}, opts), codec::UnknownCodec);
  opts.data_codec = "sz";
  opts.index_codec = "sz";  // float codec in a byte role
  EXPECT_THROW(encode_model(layers, {}, opts), codec::UnknownCodec);
}

TEST(ContainerV2, ParallelAndSerialEncodeAreByteIdentical) {
  auto layers = some_layers(5);
  std::map<std::string, double> ebs = {{"fc6", 5e-3}, {"fc8", 1e-4}};
  ContainerOptions serial;
  serial.parallel = false;
  ContainerOptions parallel;
  parallel.parallel = true;
  auto a = encode_model(layers, ebs, serial);
  auto b = encode_model(layers, ebs, parallel);
  EXPECT_EQ(a.bytes, b.bytes);
}

TEST(ContainerV2, ParallelAndSerialDecodeAgree) {
  auto layers = some_layers(5);
  auto model = encode_model(layers, {}, ContainerOptions{});
  auto serial = decode_model(model.bytes, /*parallel=*/false);
  auto parallel = decode_model(model.bytes, /*parallel=*/true);
  ASSERT_EQ(serial.layers.size(), parallel.layers.size());
  for (std::size_t i = 0; i < serial.layers.size(); ++i) {
    EXPECT_EQ(serial.layers[i].data, parallel.layers[i].data);
    EXPECT_EQ(serial.layers[i].index, parallel.layers[i].index);
  }
}

TEST(ContainerV2, PerStreamCrcDetectsCorruptionInAnyLayer) {
  auto layers = some_layers(3);
  auto model = encode_model(layers, {}, ContainerOptions{});
  auto& reg = codec::CodecRegistry::instance();

  // Re-encode one layer's streams with the same codecs the container used,
  // locate those exact bytes inside the container, and flip a bit in each:
  // the per-stream CRC must catch both.
  auto data_stream = reg.make_float("sz")->encode(
      layers[1].data, codec::FloatParams{ContainerOptions{}.default_eb});
  auto index_stream = reg.make_byte("zstd")->encode(layers[2].index);
  for (const auto& stream : {data_stream, index_stream}) {
    auto it = std::search(model.bytes.begin(), model.bytes.end(),
                          stream.begin(), stream.end());
    ASSERT_NE(it, model.bytes.end());
    auto corrupt = model.bytes;
    corrupt[(it - model.bytes.begin()) + stream.size() / 2] ^= 0x01;
    try {
      decode_model(corrupt);
      FAIL() << "corruption not detected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ContainerV2, TruncatedContainerThrowsRuntimeError) {
  auto layers = some_layers(2);
  auto model = encode_model(layers, {}, ContainerOptions{});
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{11},
        model.bytes.size() / 3, model.bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(model.bytes.begin(),
                                  model.bytes.begin() + keep);
    EXPECT_THROW(decode_model(cut), std::runtime_error) << "keep " << keep;
  }
}

TEST(ContainerV2, CorruptBiasCountThrowsRuntimeError) {
  auto layers = some_layers(1);
  auto model = encode_model(layers, {}, ContainerOptions{});
  // With no biases, the container ends with the u64 bias count; blow it up.
  auto corrupt = model.bytes;
  std::uint64_t huge = 1ull << 61;
  std::memcpy(corrupt.data() + corrupt.size() - 8, &huge, 8);
  EXPECT_THROW(decode_model(corrupt), std::runtime_error);
}

TEST(ContainerV2, CorruptCodecSpecThrowsRuntimeError) {
  auto layers = some_layers(1);
  auto model = encode_model(layers, {}, ContainerOptions{});  // data "sz"
  // The data codec spec is stored length-prefixed; mangle the name bytes.
  const std::vector<std::uint8_t> needle = {2, 0, 0, 0, 0, 0, 0, 0, 's', 'z'};
  auto it = std::search(model.bytes.begin(), model.bytes.end(),
                        needle.begin(), needle.end());
  ASSERT_NE(it, model.bytes.end());
  auto corrupt = model.bytes;
  corrupt[(it - model.bytes.begin()) + 9] = '?';  // "sz" -> "s?"
  try {
    decode_model(corrupt);
    FAIL() << "corrupt codec spec not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("codec spec"), std::string::npos)
        << e.what();
  }
}

namespace {

/// Third-party codec with a frame format the builtin lossless layer cannot
/// parse: decoding must go through the registry, not lossless::decompress.
class XorCodec : public codec::ByteCodec {
 public:
  std::string name() const override { return "xor8-test"; }
  std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> data) const override {
    std::vector<std::uint8_t> out = {0xEE};
    for (auto b : data) out.push_back(b ^ 0x55);
    return out;
  }
  std::vector<std::uint8_t> decode(
      std::span<const std::uint8_t> frame) const override {
    if (frame.empty() || frame[0] != 0xEE) {
      throw std::runtime_error("xor8-test: bad frame");
    }
    std::vector<std::uint8_t> out;
    for (auto b : frame.subspan(1)) out.push_back(b ^ 0x55);
    return out;
  }
};

}  // namespace

TEST(ContainerV2, ThirdPartyIndexCodecRoundTrips) {
  auto& reg = codec::CodecRegistry::instance();
  if (!reg.has_byte("xor8-test")) {
    codec::CodecInfo info;
    info.name = "xor8-test";
    info.summary = "custom-framed codec for decode-dispatch test";
    reg.register_byte(info, [](const codec::Options& opts) {
      opts.check_known({});
      return std::make_shared<XorCodec>();
    });
  }
  auto layers = some_layers(2);
  ContainerOptions opts;
  opts.index_codec = "xor8-test";
  auto model = encode_model(layers, {}, opts);
  auto decoded = decode_model(model.bytes);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(decoded.layers[i].index, layers[i].index);
  }
}

// Frozen pre-registry layout (container version 2): implicit SZ data stream
// and self-describing lossless index frame, no codec names on the wire.
std::vector<std::uint8_t> encode_legacy_v2(
    const std::vector<sparse::PrunedLayer>& layers, double eb,
    const std::vector<float>& fc6_bias) {
  std::vector<std::uint8_t> out;
  util::put_le<std::uint32_t>(out, 0x435a5344);  // "DSZC"
  util::put_le<std::uint32_t>(out, 2);           // legacy version
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
    const bool has_bias = layer.name == "fc6" && !fc6_bias.empty();
    util::put_le<std::uint64_t>(out, has_bias ? fc6_bias.size() : 0);
    if (has_bias) {
      for (float b : fc6_bias) util::put_le<float>(out, b);
    }
  }
  return out;
}

TEST(ContainerV2, StillDecodesLegacyVersion2Containers) {
  auto layers = some_layers(3);
  const double eb = 2e-3;
  auto bytes = encode_legacy_v2(layers, eb, {0.5f, -1.5f});
  auto decoded = decode_model(bytes);
  ASSERT_EQ(decoded.layers.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.layers[i].name, layers[i].name);
    EXPECT_EQ(decoded.layers[i].index, layers[i].index);
    EXPECT_LE(util::max_abs_error(layers[i].data, decoded.layers[i].data),
              eb * (1 + 1e-12));
  }
  ASSERT_EQ(decoded.biases.size(), 1u);
  EXPECT_EQ(decoded.biases.at("fc6"), (std::vector<float>{0.5f, -1.5f}));
}

TEST(ContainerV2, RecordedStreamOneSpecStillDecodes) {
  // Containers on disk may record "sz:stream=1", the read-only v1 spec.
  // Forge one: an indexless container's record specs are covered by no
  // CRC, and "stream=2" -> "stream=1" keeps every length and offset.
  auto layers = some_layers(2);
  ContainerOptions opts;
  opts.data_codec = "sz:stream=2";
  const auto bytes = strip_footer(encode_model(layers, {}, opts).bytes);
  auto patched = bytes;
  const std::string from = opts.data_codec;
  int specs = 0;
  auto it = patched.begin();
  while ((it = std::search(it, patched.end(), from.begin(), from.end())) !=
         patched.end()) {
    it[from.size() - 1] = '1';
    ++specs;
  }
  ASSERT_EQ(specs, 2);  // one record per layer

  auto expected = decode_model(bytes);
  auto decoded = decode_model(patched);
  EXPECT_EQ(ContainerReader(patched).entry("fc6").data.codec, "sz:stream=1");
  ASSERT_EQ(decoded.layers.size(), expected.layers.size());
  for (std::size_t i = 0; i < expected.layers.size(); ++i) {
    EXPECT_EQ(decoded.layers[i].data, expected.layers[i].data);
    EXPECT_EQ(decoded.layers[i].index, expected.layers[i].index);
  }
}

}  // namespace
}  // namespace deepsz::core
