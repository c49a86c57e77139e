#include "compress/compare.h"

#include <exception>
#include <utility>

#include "compress/registry.h"
#include "core/pruner.h"
#include "obs/trace.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "util/rng.h"

namespace deepsz::compress {
namespace {

/// Loads the container through the serving layer and checks the acceptance
/// property: a warm request binds cached layers only — no cache miss.
void verify_serving(const core::EncodedModel& model, std::int64_t batch,
                    CompareRow& row) {
  serve::ModelStore store(model.bytes);
  auto net = serve::make_fc_network(store.reader());
  const auto in_features = store.reader().entry(std::size_t{0}).cols;

  util::Pcg32 rng(0x5eedbee5);
  nn::Tensor x({batch, in_features});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }

  {
    serve::InferenceSession cold(store, net);
    (void)cold.infer(x);  // decodes every reached layer into the cache
  }
  store.reset_stats();
  {
    serve::InferenceSession warm(store, net);
    (void)warm.infer(x);
  }
  row.serve_ok = store.stats().misses == 0;
}

}  // namespace

std::vector<CompareRow> compare_strategies(
    nn::Network& net, const nn::Tensor& train_images,
    const std::vector<int>& train_labels, const nn::Tensor& test_images,
    const std::vector<int>& test_labels, const CompareOptions& options) {
  auto& registry = CompressorRegistry::instance();
  std::vector<std::string> specs = options.specs;
  if (specs.empty()) {
    for (const auto& info : registry.list()) specs.push_back(info.name);
  }

  // Prune once; every strategy compresses the same pruned layers, exactly
  // as the paper's comparison tables do.
  if (options.prune_first) {
    core::prune_and_retrain(net, train_images, train_labels,
                            options.spec.prune);
  }
  auto pruned = core::extract_pruned_layers(net);
  if (pruned.empty()) {
    throw std::invalid_argument(
        "compare_strategies: no pruned fc-layers (set spec.prune.keep_ratio "
        "or pass a pre-pruned network)");
  }
  // One trunk-caching oracle, and the baseline it measures, shared across
  // every row (each session would otherwise re-run the trunk pass).
  auto oracle = std::make_shared<core::CachedHeadOracle>(net, test_images,
                                                         test_labels);
  const auto acc_pruned = oracle->accuracy();

  std::vector<CompareRow> rows;
  rows.reserve(specs.size());
  for (const auto& spec_str : specs) {
    CompareRow row;
    row.spec = spec_str;
    try {
      core::load_layers_into_network(pruned, net);  // shared starting point
      CompressSpec spec = options.spec;
      auto strategy = registry.make(spec_str);
      row.strategy = strategy->info().name;
      CompressionSession session(std::move(strategy), net, train_images,
                                 train_labels, test_images, test_labels,
                                 std::move(spec));
      session.adopt_pruned(oracle, acc_pruned);
      auto report = session.run();

      row.payload_bytes = report.model.compressed_payload_bytes();
      row.ratio = report.compression_ratio;
      row.top1_pruned = report.acc_pruned.top1;
      row.top1_decoded = report.acc_decoded.top1;
      row.encode_seconds = report.encode_seconds;
      obs::TraceSpan decode("decode_model", "compress");
      core::decode_model(report.model.bytes);
      row.decode_ms = decode.close();
      verify_serving(report.model, options.serve_batch, row);
    } catch (const std::exception& e) {
      row.error = e.what();
    }
    rows.push_back(std::move(row));
  }
  core::load_layers_into_network(pruned, net);
  return rows;
}

}  // namespace deepsz::compress
