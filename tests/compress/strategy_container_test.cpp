// Registry-wide property test (the compressor analogue of the codec
// registry's round-trip test): EVERY registered strategy, run through a
// CompressionSession on the same pruned model, must emit a v3 indexed
// container that
//   - full-decodes deterministically (two decodes are bit-exact),
//   - random-accesses per layer through ContainerReader bit-exactly equal
//     to the full decode,
//   - reloads into the network via load_compressed_model,
// so serve-bench, model-info, golden fixtures and ModelStore work on any
// strategy's output without knowing which strategy produced it.
#include <gtest/gtest.h>

#include <cstring>

#include "compress/registry.h"
#include "compress/session.h"
#include "core/pipeline.h"
#include "tests/compress/tiny_model.h"

namespace deepsz {
namespace {

bool bit_exact(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool layers_bit_exact(const sparse::PrunedLayer& a,
                      const sparse::PrunedLayer& b) {
  return a.name == b.name && a.rows == b.rows && a.cols == b.cols &&
         a.index == b.index && bit_exact(a.data, b.data);
}

TEST(StrategyContainerTest, EveryRegisteredStrategyRoundTripsTheContainer) {
  auto m = testing::make_tiny_pruned();
  auto pruned = core::extract_pruned_layers(m.net);
  ASSERT_FALSE(pruned.empty());

  auto& registry = compress::CompressorRegistry::instance();
  const auto infos = registry.list();
  ASSERT_GE(infos.size(), 5u);  // deepsz, deep-compression, weightless, zfp,
                                // store at minimum

  for (const auto& info : infos) {
    SCOPED_TRACE("strategy: " + info.name);
    core::load_layers_into_network(pruned, m.net);

    compress::CompressionSession session(
        registry.make(info.name), m.net, m.train.images, m.train.labels,
        m.test.images, m.test.labels, {});
    session.adopt_pruned();
    auto report = session.run();
    ASSERT_FALSE(report.model.bytes.empty());
    EXPECT_GT(report.compression_ratio, 1.0);

    // Full decode is deterministic: same bytes in, bit-exact layers out.
    auto once = core::decode_model(report.model.bytes);
    auto twice = core::decode_model(report.model.bytes);
    ASSERT_EQ(once.layers.size(), pruned.size());
    for (std::size_t i = 0; i < once.layers.size(); ++i) {
      EXPECT_TRUE(layers_bit_exact(once.layers[i], twice.layers[i]));
    }

    // Random access: ContainerReader decodes each named layer bit-exactly
    // equal to the corresponding full-decode layer.
    core::ContainerReader reader(report.model.bytes);
    EXPECT_TRUE(reader.has_footer_index());
    ASSERT_EQ(reader.num_layers(), once.layers.size());
    for (const auto& layer : once.layers) {
      ASSERT_TRUE(reader.contains(layer.name));
      auto direct = reader.decode_layer(layer.name);
      EXPECT_TRUE(layers_bit_exact(direct, layer));
      // Biases ride along for every strategy.
      EXPECT_FALSE(reader.decode_bias(layer.name).empty());
    }

    // The container reloads into the original architecture.
    EXPECT_NO_THROW(core::load_compressed_model(report.model.bytes, m.net));
  }
}

TEST(StrategyContainerTest, UnknownStrategyAndBadOptionsThrow) {
  auto& registry = compress::CompressorRegistry::instance();
  EXPECT_THROW(registry.make("no-such-strategy"),
               compress::UnknownCompressor);
  EXPECT_THROW(registry.make("deepsz:unknown_key=1"), codec::BadOptions);
  EXPECT_THROW(registry.make("deep-compression:bits=99"), codec::BadOptions);
  EXPECT_THROW(registry.make("deepsz:expected_acc=-1"), codec::BadOptions);
}

TEST(StrategyContainerTest, RegistryListsTheBaselineStrategies) {
  auto& registry = compress::CompressorRegistry::instance();
  for (const char* name :
       {"deepsz", "deep-compression", "weightless", "zfp", "store"}) {
    EXPECT_TRUE(registry.has(name)) << name;
  }
}

}  // namespace
}  // namespace deepsz
