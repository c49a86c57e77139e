// Compressed-domain serving capacity: how many Deep-Compression models one
// SharedCacheBudget holds when "dc" layers stay resident as codebook-CSR
// (ServingForm::kCodebookCsr, ~4-5 bits/weight) instead of inflating to
// dense f32 — and what the compressed-domain forward costs at warm steady
// state.
//
// Three measurements:
//
//   residency — one model's decoded footprint dense vs native (the per-model
//               win; must be >= 4x for the capacity claim to follow);
//   capacity  — models fully resident under ONE fixed SharedCacheBudget
//               before cross-model eviction begins, dense vs native;
//   latency   — warm batched p50 through the codebook-gather kernel vs the
//               dense batched forward over the same weights (parity target:
//               within 2x).
//
// Exits nonzero when the capacity win drops below 4x or warm latency loses
// parity, so the claim is checked, not just printed.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "obs/trace.h"
#include "serve/cache_budget.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "util/rng.h"

using namespace deepsz;

namespace {

constexpr int kRequests = 32;
constexpr int kBatch = 8;

core::EncodedModel make_dc_model(int seed) {
  // AlexNet-shaped fc-stack at 1/8 scale, Deep-Compression coded: k-means
  // codebook values ("dc") + Huffman position deltas, the strategy's
  // container layout (compress/strategies.cpp).
  std::vector<sparse::PrunedLayer> layers;
  layers.push_back(
      data::synthesize_pruned_layer("fc6", 512, 1152, 0.09, seed));
  layers.push_back(
      data::synthesize_pruned_layer("fc7", 512, 512, 0.09, seed + 1));
  layers.push_back(
      data::synthesize_pruned_layer("fc8", 125, 512, 0.25, seed + 2));
  std::map<std::string, std::vector<float>> biases;
  for (const auto& l : layers) {
    biases[l.name] =
        std::vector<float>(static_cast<std::size_t>(l.rows), 0.01f);
  }
  core::ContainerOptions copts;
  copts.data_codec = "dc:bits=5,iters=8";
  copts.index_codec = "huffman";
  return core::encode_model(layers, {}, copts, biases);
}

serve::ModelStoreOptions store_options(
    bool native, std::shared_ptr<serve::SharedCacheBudget> budget = nullptr) {
  serve::ModelStoreOptions opts;
  opts.cache_budget_bytes = ~std::size_t{0};
  opts.build_csr = true;
  opts.native_form = native;
  opts.shared_budget = std::move(budget);
  return opts;
}

std::size_t resident_bytes(const core::EncodedModel& model, bool native) {
  serve::ModelStore store(model.bytes, store_options(native));
  store.warmup();
  return store.stats().cached_bytes;
}

/// Fully-resident models under `budget` before cross-model eviction starts.
std::size_t capacity_under(const core::EncodedModel& model, bool native,
                           std::size_t budget_bytes, std::size_t max_models) {
  auto budget = std::make_shared<serve::SharedCacheBudget>(budget_bytes);
  std::vector<std::unique_ptr<serve::ModelStore>> stores;
  for (std::size_t n = 0; n < max_models; ++n) {
    stores.push_back(std::make_unique<serve::ModelStore>(
        model.bytes, store_options(native, budget)));
    stores.back()->warmup();
    if (budget->evictions() > 0) return n;  // the n+1'th didn't fit whole
  }
  return max_models;
}

double warm_p50_ms(const core::EncodedModel& model, bool native,
                   bool sparse) {
  serve::ModelStore store(model.bytes, store_options(native));
  auto net = serve::make_fc_network(store.reader());
  const auto in_features = store.reader().entry(std::size_t{0}).cols;
  util::Pcg32 rng(42);
  std::vector<double> warm;
  for (int r = 0; r < kRequests; ++r) {
    nn::Tensor x({kBatch, in_features});
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    serve::InferenceSession session(store, net);
    session.enable_sparse_forward(sparse);
    obs::TraceSpan span("infer", "bench");
    session.infer(x);
    const double ms = span.close();
    if (r > 0) warm.push_back(ms);  // r==0 pays decode
  }
  std::sort(warm.begin(), warm.end());
  return warm[warm.size() / 2];
}

}  // namespace

int main() {
  bench::print_title(
      "Codebook-CSR serving capacity: dc models under one shared budget",
      "dense = inflate to f32 at decode; native = stay codebook-CSR");

  auto model = make_dc_model(11);
  const std::size_t dense_bytes = resident_bytes(model, /*native=*/false);
  const std::size_t native_bytes = resident_bytes(model, /*native=*/true);
  const double residency_win =
      static_cast<double>(dense_bytes) / static_cast<double>(native_bytes);
  std::printf("one model resident: dense %s, codebook-CSR %s (%.2fx)\n",
              bench::fmt_bytes(dense_bytes).c_str(),
              bench::fmt_bytes(native_bytes).c_str(), residency_win);

  // A budget that comfortably holds 2 dense copies of the model.
  const std::size_t budget = dense_bytes * 2 + dense_bytes / 4;
  const std::size_t max_probe = 64;
  const std::size_t cap_dense =
      capacity_under(model, /*native=*/false, budget, max_probe);
  const std::size_t cap_native =
      capacity_under(model, /*native=*/true, budget, max_probe);
  std::printf(
      "shared budget %s: %zu dense model(s) resident, %zu codebook model(s) "
      "resident (%.1fx)\n",
      bench::fmt_bytes(budget).c_str(), cap_dense, cap_native,
      static_cast<double>(cap_native) / static_cast<double>(cap_dense));

  // Dense comparator runs the generic dense batched forward (sparse path
  // off); the native store's codebook layers force the kernel path anyway.
  const double dense_p50 =
      warm_p50_ms(model, /*native=*/false, /*sparse=*/false);
  const double native_p50 =
      warm_p50_ms(model, /*native=*/true, /*sparse=*/true);
  std::printf(
      "warm p50 (batch %d): dense forward %.3f ms, codebook forward %.3f ms "
      "(%.2fx)\n",
      kBatch, dense_p50, native_p50, native_p50 / dense_p50);

  const bool capacity_ok =
      cap_native >= 4 * cap_dense && residency_win >= 4.0;
  const bool latency_ok = native_p50 <= 2.0 * dense_p50;
  std::printf("\ncapacity win >= 4x: %s; warm latency within 2x: %s\n",
              capacity_ok ? "yes" : "NO", latency_ok ? "yes" : "NO");
  return capacity_ok && latency_ok ? 0 : 1;
}
