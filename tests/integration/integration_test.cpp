// Cross-module integration: the full DeepSZ pipeline on the full-scale
// LeNet-300-100 trained on synthetic MNIST. This is the paper's smallest
// end-to-end experiment; it also warms the shared model cache used by the
// benchmark harnesses.
#include <gtest/gtest.h>

#include "compress/registry.h"
#include "compress/session.h"
#include "modelzoo/paper_specs.h"
#include "modelzoo/pretrained.h"

namespace deepsz {
namespace {

class LeNet300E2E : public ::testing::Test {
 protected:
  static modelzoo::TrainedModel& model() {
    static modelzoo::TrainedModel m = modelzoo::pretrained("lenet300");
    return m;
  }
};

TEST_F(LeNet300E2E, TrainsToUsableAccuracy) {
  EXPECT_GT(model().base.top1, 0.9);
}

TEST_F(LeNet300E2E, FullPipelineMeetsAccuracyBudget) {
  auto m = modelzoo::pretrained("lenet300");  // fresh copy from cache
  const auto& spec = modelzoo::paper_spec("lenet300");

  compress::CompressSpec opts;
  for (const auto& fc : spec.fc) {
    opts.prune.keep_ratio[fc.layer] = fc.keep_ratio;
  }
  opts.prune.retrain_epochs = 2;
  opts.expected_acc_loss = spec.expected_acc_loss / 100.0;  // 0.2% -> 0.002

  compress::CompressionSession session(
      compress::CompressorRegistry::instance().make("deepsz"), m.net,
      m.train.images, m.train.labels, m.test.images, m.test.labels, opts);
  auto report = session.run();

  // The headline claims, in shape: large overall ratio at tiny accuracy loss.
  EXPECT_GT(report.compression_ratio, 15.0);
  EXPECT_GE(report.acc_decoded.top1,
            report.acc_pruned.top1 - opts.expected_acc_loss - 0.015);
  // Compression must go well beyond pruning alone (CSR ~9.7x in Table 2a).
  double csr_ratio = static_cast<double>(report.dense_fc_bytes) /
                     static_cast<double>(report.csr_bytes);
  EXPECT_GT(report.compression_ratio, csr_ratio * 1.5);
  // Every fc-layer received an error bound inside its feasible range.
  EXPECT_EQ(report.chosen.choices.size(), spec.fc.size());
  for (const auto& c : report.chosen.choices) {
    EXPECT_GT(c.eb, 0.0);
  }
}

TEST_F(LeNet300E2E, SparseRepresentationBeatsDenseMatrixCompression) {
  // Section 3.2's justification for the two-array sparse format. NOTE on a
  // measured deviation from the paper: with our 1-D ABS-bounded SZ, zero
  // runs in the dense matrix reconstruct exactly (Lorenzo locks onto the
  // run), so the dense path does NOT collapse accuracy the way the paper's
  // 2-D SZ variant did — instead the sparse format's advantage shows up as
  // a strictly better compressed size at every error bound, while the
  // data-array path keeps accuracy within budget at the paper's chosen
  // bound. Recorded in EXPERIMENTS.md.
  auto m = modelzoo::pretrained("lenet300");
  core::PruneConfig prune_cfg;
  prune_cfg.keep_ratio = {{"ip1", 0.08}, {"ip2", 0.09}, {"ip3", 0.26}};
  prune_cfg.retrain_epochs = 1;
  core::prune_and_retrain(m.net, m.train.images, m.train.labels, prune_cfg);
  double pruned_acc =
      nn::evaluate(m.net, m.test.images, m.test.labels).top1;

  auto layers = core::extract_pruned_layers(m.net);
  for (double eb : {1e-2, 2e-2}) {
    sz::SzParams params;
    params.error_bound = eb;
    auto data_stream = sz::compress(layers[0].data, params);
    auto index_stream =
        lossless::compress(lossless::CodecId::kZstdLike, layers[0].index);
    auto dense = layers[0].to_dense();
    auto dense_stream = sz::compress(dense, params);
    EXPECT_LT(data_stream.size() + index_stream.size(),
              dense_stream.size() * 0.9)
        << "eb " << eb;
  }

  // Accuracy at the paper's chosen ip1 bound stays within budget.
  sz::SzParams params;
  params.error_bound = 2e-2;
  auto decoded = sz::decompress(sz::compress(layers[0].data, params));
  core::load_layers_into_network({layers[0].with_data(decoded)}, m.net);
  double acc = nn::evaluate(m.net, m.test.images, m.test.labels).top1;
  EXPECT_GT(acc, pruned_acc - 0.05);
}

}  // namespace
}  // namespace deepsz
