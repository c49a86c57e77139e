// Quickstart: compress a trained network through the pluggable compressor
// API in ~30 lines.
//
//   1. train (or load) a network;
//   2. resolve a strategy ("deepsz", "deep-compression", "weightless",
//      "zfp", "store" — run `deepsz_tool codecs` for the list) and drive it
//      through a CompressionSession: Prune -> Assess -> Optimize -> Encode;
//   3. ship report.model.bytes; decode on the edge device with
//      core::load_compressed_model (or serve it layer-by-layer through
//      serve::ModelStore).
//
// Uses full-scale LeNet-300-100 on the synthetic MNIST substitute. The first
// run trains and caches the network (~20 s); later runs are instant.
#include <cstdio>

#include "compress/registry.h"
#include "compress/session.h"
#include "core/pipeline.h"
#include "modelzoo/pretrained.h"
#include "modelzoo/zoo.h"
#include "obs/trace.h"

int main() {
  using namespace deepsz;

  // A trained network plus its train/test data (cached after first use).
  auto m = modelzoo::pretrained("lenet300");
  std::printf("trained LeNet-300-100: top-1 %.2f%%\n", m.base.top1 * 100);

  // Configure the four-stage session: pruning ratios per fc-layer (paper
  // Table 2a) and the user-expected accuracy loss (0.2%).
  compress::CompressSpec spec;
  spec.prune.keep_ratio = {{"ip1", 0.08}, {"ip2", 0.09}, {"ip3", 0.26}};
  spec.prune.retrain_epochs = 2;
  spec.expected_acc_loss = 0.002;

  auto strategy = compress::CompressorRegistry::instance().make("deepsz");
  compress::CompressionSession session(strategy, m.net, m.train.images,
                                       m.train.labels, m.test.images,
                                       m.test.labels, spec);
  session.set_progress([](compress::Stage stage, const std::string& msg) {
    // Stage boundaries only ("assess: start", "assess: done — ..."); the
    // per-error-bound progress lines are skipped to keep the demo readable.
    if (msg.rfind(compress::stage_name(stage), 0) == 0) {
      std::printf("  %s\n", msg.c_str());
    }
  });
  auto report = session.run();

  std::printf("\nfc-layers: %.1f KB dense -> %.1f KB compressed (%.1fx)\n",
              report.dense_fc_bytes / 1024.0,
              report.model.compressed_payload_bytes() / 1024.0,
              report.compression_ratio);
  std::printf("top-1: %.2f%% original, %.2f%% after decode (budget %.1f%%)\n",
              report.acc_original.top1 * 100, report.acc_decoded.top1 * 100,
              spec.expected_acc_loss * 100);
  for (const auto& c : report.chosen.choices) {
    std::printf("  layer %-4s error bound %.0e -> %zu bytes\n",
                c.layer.c_str(), c.eb, c.data_bytes);
  }
  if (!report.model.stats.empty()) {
    std::printf("container codecs: data \"%s\", index \"%s\"\n",
                report.model.stats[0].data_codec.c_str(),
                report.model.stats[0].index_codec.c_str());
  }

  // Stage re-use: a new budget re-runs only Optimize+Encode — the expensive
  // assessment (dozens of accuracy tests) is NOT repeated.
  session.set_expected_acc_loss(0.004);
  auto relaxed = session.run();
  std::printf("re-optimized at 0.4%% budget: %.1fx (assessment reused)\n",
              relaxed.compression_ratio);

  // The compressed model is a self-contained byte blob (weights + biases):
  // decode it into a freshly built network of the same architecture.
  auto fresh = modelzoo::make_by_key("lenet300");
  obs::TraceSpan load("load_compressed_model", "example");
  core::load_compressed_model(relaxed.model.bytes, fresh);
  std::printf("decode + load: %.1f ms\n", load.close());
  auto acc = nn::evaluate(fresh, m.test.images, m.test.labels);
  std::printf("decoded network top-1: %.2f%%\n", acc.top1 * 100);
  return 0;
}
