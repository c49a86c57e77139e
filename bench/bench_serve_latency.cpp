// Serving latency: random access + layer-decode cache vs. the paper's
// decode-everything-then-infer deployment.
//
// The paper's Figure 7b decode cost is paid up front for the whole container
// before the first inference. The serving layer (serve/) instead decodes
// layers on first touch through the container's seekable index and memoizes
// them behind a byte-budgeted LRU cache, so:
//
//   cold   — first request pays codec work for the layers it reaches;
//   warm   — steady-state requests do zero codec work (hit rate 1.0);
//   thrash — a cache budget below the model size measures the re-decode
//            cost eviction reintroduces, i.e. what the budget buys.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "obs/trace.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "util/rng.h"
#include "util/threadpool.h"

using namespace deepsz;

namespace {

constexpr int kRequests = 48;
constexpr int kBatch = 8;

/// Codec time of the unlabelled stores since the last obs::Tracer::reset():
/// their "decode" spans or one of its phases.
double store_stage_ms(const char* stage) {
  return obs::Tracer::stage_total_ms(stage, "store");
}

core::EncodedModel make_model() {
  // An AlexNet-shaped fc-stack at 1/8 scale: big enough that codec work
  // dominates a cold request, small enough to run in seconds.
  std::vector<sparse::PrunedLayer> layers;
  layers.push_back(data::synthesize_pruned_layer("fc6", 512, 1152, 0.09, 1));
  layers.push_back(data::synthesize_pruned_layer("fc7", 512, 512, 0.09, 2));
  layers.push_back(data::synthesize_pruned_layer("fc8", 125, 512, 0.25, 3));
  std::map<std::string, std::vector<float>> biases;
  for (const auto& l : layers) {
    biases[l.name] =
        std::vector<float>(static_cast<std::size_t>(l.rows), 0.01f);
  }
  return core::encode_model(layers, {}, {}, biases);
}

struct RunResult {
  double cold_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double warm_codec_ms = 0.0;
  double hit_rate = 0.0;
  std::uint64_t evictions = 0;
};

RunResult run_scenario(const core::EncodedModel& model,
                       std::size_t budget_bytes) {
  serve::ModelStoreOptions opts;
  opts.cache_budget_bytes = budget_bytes;
  serve::ModelStore store(model.bytes, opts);
  auto net = serve::make_fc_network(store.reader());
  const auto in_features = store.reader().entry(std::size_t{0}).cols;

  util::Pcg32 rng(77);
  std::vector<double> latencies;
  for (int r = 0; r < kRequests; ++r) {
    if (r == 1) {  // warm from here on
      store.reset_stats();
      obs::Tracer::reset();
    }
    nn::Tensor x({kBatch, in_features});
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    serve::InferenceSession session(store, net);  // request-scoped session
    obs::TraceSpan span("infer", "bench");
    session.infer(x);
    latencies.push_back(span.close());
  }

  std::vector<double> warm(latencies.begin() + 1, latencies.end());
  std::sort(warm.begin(), warm.end());
  const auto stats = store.stats();
  RunResult res;
  res.cold_ms = latencies.front();
  res.p50_ms = warm[warm.size() / 2];
  res.p95_ms = warm[static_cast<std::size_t>(0.95 * (warm.size() - 1))];
  res.warm_codec_ms = store_stage_ms("decode");
  res.hit_rate = stats.hit_rate();
  res.evictions = stats.evictions;
  return res;
}

}  // namespace

int main() {
  bench::print_title(
      "Serving latency: layer-decode cache vs. decode-everything",
      "request-scoped sessions over one ModelStore; warm = after request 1");

  auto model = make_model();
  const std::size_t model_bytes = [&] {
    serve::ModelStore probe(model.bytes);
    probe.warmup();
    return probe.stats().cached_bytes;
  }();

  // The paper's deployment path: decode the full container, every reload.
  obs::TraceSpan eager("decode_model", "bench");
  for (const auto& layer : core::decode_model(model.bytes).layers) {
    volatile float sink = layer.to_dense()[0];
    (void)sink;
  }
  const double eager_ms = eager.close();
  std::printf("full decode (paper deployment path): %.2f ms, decoded %s\n\n",
              eager_ms, bench::fmt_bytes(model_bytes).c_str());

  bench::print_row({"cache budget", "cold ms", "p50 ms", "p95 ms",
                    "codec ms", "hit rate", "evict"},
                   13);
  struct Scenario {
    const char* label;
    std::size_t budget;
  };
  const Scenario scenarios[] = {
      {"unbounded", ~std::size_t{0}},
      {"fits model", model_bytes + (model_bytes >> 3)},
      {"half model", model_bytes / 2},
  };
  for (const auto& s : scenarios) {
    auto r = run_scenario(model, s.budget);
    bench::print_row({s.label, bench::fmt(r.cold_ms), bench::fmt(r.p50_ms),
                      bench::fmt(r.p95_ms), bench::fmt(r.warm_codec_ms),
                      bench::fmt(r.hit_rate), std::to_string(r.evictions)},
                     13);
  }
  std::printf(
      "\nwith a fitting budget, warm requests do zero codec work; the cold\n"
      "request pays only the reached layers, overlapped with their compute.\n");

  bench::print_title(
      "Cold-miss decode: sz stream v2 through ModelStore",
      "one >= 4M-parameter layer; the cold get() pays the full codec cost, "
      "fanning the layer's chunks across ThreadPool::global()");
  std::printf("hardware threads: %zu (DEEPSZ_THREADS overrides)\n\n",
              util::ThreadPool::global().size());
  {
    // Same single-large-layer shape as the serving daemon's worst cache
    // miss: 2048 x 8192 dense at 25% density keeps ~4.2M values.
    std::vector<sparse::PrunedLayer> big;
    big.push_back(data::synthesize_pruned_layer("fc6", 2048, 8192, 0.25, 9));
    std::printf("layer: %zu stored values\n\n", big[0].data.size());

    bench::print_row({"data codec", "payload", "cold get ms", "lossless ms",
                      "eb block ms", "reconstr ms"},
                     14);
    auto encoded = core::encode_model(big, {}, core::ContainerOptions{});
    serve::ModelStore store(encoded.bytes);
    obs::Tracer::reset();
    obs::TraceSpan span("get", "bench");
    auto layer = store.get("fc6");
    const double cold_ms = span.close();
    (void)layer;
    bench::print_row({"sz", std::to_string(encoded.compressed_payload_bytes()),
                      bench::fmt(cold_ms, 1),
                      bench::fmt(store_stage_ms("lossless"), 1),
                      bench::fmt(store_stage_ms("eb_decode"), 1),
                      bench::fmt(store_stage_ms("reconstruct"), 1)},
                     14);
  }

  bench::print_title(
      "Compressed-domain serving: dc container dense vs codebook-CSR",
      "same \"dc\" container; native keeps layers as codebook ids + "
      "centroids and runs the codebook-gather kernel");
  {
    std::vector<sparse::PrunedLayer> layers;
    layers.push_back(
        data::synthesize_pruned_layer("fc6", 512, 1152, 0.09, 21));
    layers.push_back(data::synthesize_pruned_layer("fc7", 512, 512, 0.09, 22));
    layers.push_back(data::synthesize_pruned_layer("fc8", 125, 512, 0.25, 23));
    core::ContainerOptions copts;
    copts.data_codec = "dc:bits=5,iters=8";
    copts.index_codec = "huffman";
    auto dc_model = core::encode_model(layers, {}, copts);

    bench::print_row({"store", "cold ms", "warm p50 ms", "resident",
                      "codebook-csr"},
                     13);
    for (int native = 0; native < 2; ++native) {
      serve::ModelStoreOptions opts;
      opts.build_csr = true;
      opts.native_form = native != 0;
      serve::ModelStore store(dc_model.bytes, opts);
      auto net = serve::make_fc_network(store.reader());
      const auto in_features = store.reader().entry(std::size_t{0}).cols;
      util::Pcg32 rng(5);
      std::vector<double> lat;
      for (int r = 0; r < kRequests; ++r) {
        nn::Tensor x({kBatch, in_features});
        for (std::int64_t i = 0; i < x.numel(); ++i) {
          x[i] = static_cast<float>(rng.normal(0.0, 1.0));
        }
        serve::InferenceSession session(store, net);
        session.enable_sparse_forward(true);
        obs::TraceSpan span("infer", "bench");
        session.infer(x);
        lat.push_back(span.close());
      }
      std::vector<double> warm(lat.begin() + 1, lat.end());
      std::sort(warm.begin(), warm.end());
      const auto stats = store.stats();
      bench::print_row(
          {native ? "native (codebook)" : "dense f32", bench::fmt(lat.front()),
           bench::fmt(warm[warm.size() / 2]),
           bench::fmt_bytes(stats.cached_bytes),
           bench::fmt_bytes(stats.form_resident(
               serve::ServingForm::kCodebookCsr))},
          13);
    }
  }
  return 0;
}
