// Golden wire-format fixtures: two tiny checked-in containers that the
// decoder must keep decoding bit-exactly, forever. A failure here means the
// wire format (or a codec's decode path) changed behavior for existing
// files — that is a breaking release, not a refactor.
//
// Both fixtures are frozen: no encoder writes the indexless v2 container or
// sz-v1 streams any more, so tools/make_golden_fixtures.cpp cannot
// regenerate them and they never change (see docs/container_format.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/model_codec.h"
#include "util/crc32.h"

namespace deepsz::core {
namespace {

std::vector<std::uint8_t> read_fixture(const std::string& name) {
  const std::string path = std::string(DEEPSZ_FIXTURE_DIR) + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    ADD_FAILURE() << "missing fixture " << path;
    return {};
  }
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
  return data;
}

std::uint32_t float_crc(const std::vector<float>& v) {
  return util::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(v.data()),
      v.size() * sizeof(float)));
}

std::vector<float> expected_bias() {
  std::vector<float> bias(24);
  for (std::size_t i = 0; i < bias.size(); ++i) {
    bias[i] = 0.01f * static_cast<float>(i) - 0.05f;
  }
  return bias;
}

TEST(GoldenContainer, LegacyV2FixtureDecodesBitExactly) {
  auto bytes = read_fixture("legacy_v2.dszc");
  ASSERT_EQ(bytes.size(), 1276u);
  ASSERT_EQ(util::crc32(bytes), 0x957815dau) << "fixture file changed";

  auto decoded = decode_model(bytes);
  ASSERT_EQ(decoded.layers.size(), 2u);
  EXPECT_EQ(decoded.layers[0].name, "fc6");
  EXPECT_EQ(decoded.layers[0].rows, 24);
  EXPECT_EQ(decoded.layers[0].cols, 32);
  EXPECT_EQ(decoded.layers[0].stored_entries(), 192u);
  EXPECT_EQ(float_crc(decoded.layers[0].data), 0xd6b6a7f3u);
  EXPECT_EQ(util::crc32(decoded.layers[0].index), 0x4dc15ab1u);
  EXPECT_EQ(decoded.layers[1].name, "fc7");
  EXPECT_EQ(decoded.layers[1].stored_entries(), 116u);
  EXPECT_EQ(float_crc(decoded.layers[1].data), 0x3819f173u);
  EXPECT_EQ(util::crc32(decoded.layers[1].index), 0xd9e41fdeu);
  ASSERT_EQ(decoded.biases.size(), 1u);
  EXPECT_EQ(decoded.biases.at("fc6"), expected_bias());
}

TEST(GoldenContainer, IndexedV3FixtureDecodesBitExactly) {
  auto bytes = read_fixture("indexed_v3.dszc");
  ASSERT_EQ(bytes.size(), 1626u);
  ASSERT_EQ(util::crc32(bytes), 0x74d0daf0u) << "fixture file changed";

  auto decoded = decode_model(bytes);
  ASSERT_EQ(decoded.layers.size(), 2u);
  EXPECT_EQ(float_crc(decoded.layers[0].data), 0xd6b6a7f3u);
  EXPECT_EQ(util::crc32(decoded.layers[0].index), 0x4dc15ab1u);
  // fc7 was encoded at eb=5e-4 (vs 1e-3 in the legacy fixture): the data
  // stream decodes to different values, the lossless index to the same.
  EXPECT_EQ(float_crc(decoded.layers[1].data), 0x6cc7b5f7u);
  EXPECT_EQ(util::crc32(decoded.layers[1].index), 0xd9e41fdeu);
  EXPECT_EQ(decoded.biases.at("fc6"), expected_bias());
}

TEST(GoldenContainer, IndexedV3FixtureRandomAccessAgreesWithFullDecode) {
  auto bytes = read_fixture("indexed_v3.dszc");
  ContainerReader reader(bytes);
  EXPECT_TRUE(reader.has_footer_index());
  ASSERT_EQ(reader.num_layers(), 2u);
  auto full = decode_model(bytes);
  for (std::size_t i = 0; i < 2; ++i) {
    auto one = reader.decode_layer(i);
    EXPECT_EQ(one.data, full.layers[i].data);
    EXPECT_EQ(one.index, full.layers[i].index);
  }
  EXPECT_EQ(reader.decode_bias("fc6"), expected_bias());
}

TEST(GoldenContainer, LegacyV2FixtureRandomAccessWorks) {
  auto bytes = read_fixture("legacy_v2.dszc");
  ContainerReader reader(bytes);
  EXPECT_FALSE(reader.has_footer_index());
  auto full = decode_model(bytes);
  auto one = reader.decode_layer("fc7");
  EXPECT_EQ(one.data, full.layers[1].data);
  EXPECT_EQ(one.index, full.layers[1].index);
}

}  // namespace
}  // namespace deepsz::core
