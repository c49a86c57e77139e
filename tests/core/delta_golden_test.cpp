// Golden delta-container fixture: a checked-in DSZC v4 delta plus its v3
// base that the chain-resolving decoder must keep reconstructing
// bit-exactly, forever. The reconstructed layer CRCs are the SAME constants
// indexed_v3.dszc pins — a delta container's whole contract is that it
// reproduces its target container's decoded arrays exactly.
//
// delta_base_v3.dszc is reproduced by tools/make_golden_fixtures.cpp byte
// for byte; change it (and these constants, from the tool's output) only
// for a deliberate, versioned format change. delta_v3.dszc is frozen: it
// carries an sz residual where today's delta encoder writes `zero`, so the
// tool no longer writes it and it never changes (see
// docs/container_format.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
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

TEST(GoldenDelta, BaseFixtureDecodesBitExactly) {
  auto bytes = read_fixture("delta_base_v3.dszc");
  ASSERT_EQ(bytes.size(), 1667u);
  ASSERT_EQ(util::crc32(bytes), 0x1e621565u) << "fixture file changed";

  auto decoded = decode_model(bytes);
  ASSERT_EQ(decoded.layers.size(), 2u);
  // fc6 is the perturbed variant (different data CRC than indexed_v3, same
  // sparsity pattern); fc7 is bit-identical to indexed_v3's.
  EXPECT_EQ(float_crc(decoded.layers[0].data), 0x4d799706u);
  EXPECT_EQ(util::crc32(decoded.layers[0].index), 0x4dc15ab1u);
  EXPECT_EQ(float_crc(decoded.layers[1].data), 0x6cc7b5f7u);
  EXPECT_EQ(util::crc32(decoded.layers[1].index), 0xd9e41fdeu);
}

TEST(GoldenDelta, DeltaFixtureReconstructsTargetBitExactly) {
  auto base_bytes = read_fixture("delta_base_v3.dszc");
  auto bytes = read_fixture("delta_v3.dszc");
  ASSERT_EQ(bytes.size(), 1564u);
  ASSERT_EQ(util::crc32(bytes), 0x47c0038fu) << "fixture file changed";

  ContainerReader reader(bytes);
  EXPECT_EQ(reader.version(), 4u);
  EXPECT_TRUE(reader.is_delta());
  EXPECT_EQ(reader.base_id(), "delta_base_v3.dszc");
  EXPECT_EQ(reader.base_crc(), 0x1e621565u);
  EXPECT_TRUE(reader.has_footer_index());
  reader.set_base(std::make_shared<ContainerReader>(base_bytes));

  ASSERT_EQ(reader.num_layers(), 2u);
  EXPECT_EQ(reader.entry(std::size_t{0}).kind, LayerKind::kDelta);
  EXPECT_EQ(reader.entry(std::size_t{1}).kind, LayerKind::kSame);

  // The reconstructed arrays pin to indexed_v3.dszc's constants: the delta
  // resolves to the exact bits of the target it was diffed from.
  auto fc6 = reader.decode_layer(std::size_t{0});
  EXPECT_EQ(float_crc(fc6.data), 0xd6b6a7f3u);
  EXPECT_EQ(util::crc32(fc6.index), 0x4dc15ab1u);
  auto fc7 = reader.decode_layer(std::size_t{1});
  EXPECT_EQ(float_crc(fc7.data), 0x6cc7b5f7u);
  EXPECT_EQ(util::crc32(fc7.index), 0xd9e41fdeu);
  EXPECT_EQ(reader.decode_bias("fc6"), expected_bias());
}

TEST(GoldenDelta, DeltaFixtureWithoutBaseFailsCleanly) {
  auto bytes = read_fixture("delta_v3.dszc");
  ContainerReader reader(bytes);
  EXPECT_THROW((void)reader.decode_layer(std::size_t{0}),
               std::runtime_error);
  EXPECT_THROW((void)reader.decode_layer(std::size_t{1}),
               std::runtime_error);
}

TEST(GoldenDelta, DeltaFixtureRejectsWrongBase) {
  auto bytes = read_fixture("delta_v3.dszc");
  auto wrong = read_fixture("indexed_v3.dszc");
  ContainerReader reader(bytes);
  EXPECT_THROW(reader.set_base(std::make_shared<ContainerReader>(wrong)),
               std::runtime_error);
}

}  // namespace
}  // namespace deepsz::core
