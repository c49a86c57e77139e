// The acceptance property of the compressor API redesign: `compare` produces
// a ratio/accuracy/encode-decode-time row for the paper's three compared
// methods (DeepSZ, Deep Compression, Weightless), and every row's container
// loads through ModelStore + InferenceSession with warm requests doing zero
// codec work.
#include <gtest/gtest.h>

#include "compress/compare.h"
#include "compress/registry.h"
#include "tests/compress/tiny_model.h"

namespace deepsz {
namespace {

TEST(CompareStrategiesTest, PaperComparisonRowsServeWarmWithZeroCodecWork) {
  auto m = testing::make_tiny_pruned();

  compress::CompareOptions options;
  options.specs = {"deepsz", "deep-compression", "weightless"};
  options.prune_first = false;  // the fixture already pruned
  options.spec.expected_acc_loss = 0.02;
  auto rows = compress::compare_strategies(m.net, m.train.images,
                                           m.train.labels, m.test.images,
                                           m.test.labels, options);

  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    SCOPED_TRACE("strategy: " + row.spec);
    EXPECT_TRUE(row.error.empty()) << row.error;
    EXPECT_EQ(row.strategy, row.spec);
    EXPECT_GT(row.payload_bytes, 0u);
    EXPECT_GT(row.ratio, 1.0);
    EXPECT_GT(row.top1_pruned, 0.0);
    EXPECT_GT(row.top1_decoded, 0.0);
    EXPECT_GE(row.decode_ms, 0.0);
    // The acceptance criterion: served via the random-access layer, and the
    // warm request missed no layer, so it touched no codec.
    EXPECT_TRUE(row.serve_ok);
  }
  // All three compressed the same pruned layers: one shared baseline.
  EXPECT_DOUBLE_EQ(rows[0].top1_pruned, rows[1].top1_pruned);
  EXPECT_DOUBLE_EQ(rows[0].top1_pruned, rows[2].top1_pruned);
}

TEST(CompareStrategiesTest, EmptySpecListComparesEveryRegisteredStrategy) {
  auto m = testing::make_tiny_pruned();

  compress::CompareOptions options;
  options.prune_first = false;
  options.spec.expected_acc_loss = 0.02;
  auto rows = compress::compare_strategies(m.net, m.train.images,
                                           m.train.labels, m.test.images,
                                           m.test.labels, options);

  const auto registered = compress::CompressorRegistry::instance().list();
  ASSERT_EQ(rows.size(), registered.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("strategy: " + rows[i].spec);
    EXPECT_EQ(rows[i].spec, registered[i].name);
    EXPECT_TRUE(rows[i].error.empty()) << rows[i].error;
    EXPECT_TRUE(rows[i].serve_ok);
  }
}

TEST(CompareStrategiesTest, AFailingSpecYieldsAnErrorRowNotAThrow) {
  auto m = testing::make_tiny_pruned();

  compress::CompareOptions options;
  options.specs = {"store", "no-such-strategy"};
  options.prune_first = false;
  auto rows = compress::compare_strategies(m.net, m.train.images,
                                           m.train.labels, m.test.images,
                                           m.test.labels, options);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].error.empty());
  EXPECT_TRUE(rows[0].serve_ok);
  EXPECT_FALSE(rows[1].error.empty());
  EXPECT_FALSE(rows[1].serve_ok);
}

}  // namespace
}  // namespace deepsz
