// Figure 7: encoding and decoding performance of the three methods.
//
// (a) Encoding. DeepSZ's encode cost is the Algorithm-1 accuracy tests plus
//     compression; Deep Compression and Weightless must retrain the network
//     after quantization to recover accuracy. We measure all mechanical
//     phases directly and model the retraining epochs the baselines need
//     (the paper reports DC retraining for its listed encode times and
//     derives Weightless's from its epoch counts), using our measured
//     per-epoch training time.
// (b) Decoding. Measured directly: lossless + SZ + CSR reconstruction for
//     DeepSZ; codebook lookup + CSR for Deep Compression; full-matrix
//     Bloomier queries for Weightless (the O(n_dense) cost the paper
//     highlights). Paper-scale layers.
#include <algorithm>
#include <cstdio>
#include <string>

#include "baselines/deep_compression.h"
#include "baselines/weightless.h"
#include "bench_util.h"
#include "core/accuracy.h"
#include "core/assessment.h"
#include "core/model_codec.h"
#include "core/optimizer.h"
#include "core/pruner.h"
#include "data/weight_synthesis.h"
#include "nn/sgd.h"
#include "obs/trace.h"
#include "util/threadpool.h"

using namespace deepsz;

namespace {

// Retraining epochs the baselines need after quantization, from the papers
// (Deep Compression fine-tunes its codebook; Weightless retrains the other
// layers; Section 5.2.3 derives its VGG encode time from epoch counts).
constexpr int kDcRetrainEpochs = 2;
constexpr int kWlRetrainEpochs = 5;

}  // namespace

int main() {
  bench::print_title(
      "Figure 7a: encoding time (trainable-scale networks)",
      "DeepSZ = Algorithm-1 tests + compress; baselines add modeled "
      "retraining (DC 2 epochs, Weightless 5) at our measured epoch time");

  bench::print_row({"network", "DeepSZ s", "DeepComp s", "Weightless s",
                    "DC/DeepSZ", "WL/DeepSZ"},
                   14);
  for (const char* key : {"lenet5", "alexnet", "vgg16"}) {
    auto pm = bench::pretrained_pruned(key);
    auto layers = core::extract_pruned_layers(pm.net);
    const auto& spec = modelzoo::paper_spec(key);

    // DeepSZ encode: assessment + optimization + compression. (The epoch
    // timing below mutates the network, so DeepSZ must run first.)
    core::CachedHeadOracle oracle(pm.net, pm.test.images, pm.test.labels);
    obs::TraceSpan deepsz_span("deepsz_encode", "bench");
    core::AssessmentConfig cfg;
    cfg.expected_acc_loss = bench::assessment_budget(spec, pm.test.size());
    auto assessments = core::assess_error_bounds(pm.net, layers, oracle, cfg);
    auto chosen =
        core::optimize_for_accuracy(assessments, cfg.expected_acc_loss);
    std::map<std::string, double> ebs;
    for (const auto& c : chosen.choices) ebs[c.layer] = c.eb;
    core::encode_model(layers, ebs, core::ContainerOptions{});
    const double deepsz_s = deepsz_span.close() / 1e3;

    // Measured epoch time (one masked training epoch; mutates the network,
    // which the remaining encode-only measurements do not observe).
    nn::Sgd sgd({.lr = 0.001, .momentum = 0.9, .weight_decay = 0.0,
                 .batch_size = 32});
    util::Pcg32 rng(1);
    obs::TraceSpan epoch_span("train_epoch", "bench");
    sgd.train_epoch(pm.net, pm.train.images, pm.train.labels, rng);
    const double epoch_s = epoch_span.close() / 1e3;

    // Deep Compression encode: k-means + Huffman + modeled retraining.
    obs::TraceSpan dc_span("dc_encode", "bench");
    for (const auto& l : layers) baselines::dc_encode(l);
    const double dc_s = dc_span.close() / 1e3 + kDcRetrainEpochs * epoch_s;

    // Weightless encode: clustering + Bloomier build + modeled retraining.
    obs::TraceSpan wl_span("weightless_encode", "bench");
    for (const auto& l : layers) baselines::weightless_encode(l);
    const double wl_s = wl_span.close() / 1e3 + kWlRetrainEpochs * epoch_s;

    bench::print_row({spec.name, bench::fmt(deepsz_s, 2), bench::fmt(dc_s, 2),
                      bench::fmt(wl_s, 2), bench::fmt(dc_s / deepsz_s, 2) + "x",
                      bench::fmt(wl_s / deepsz_s, 2) + "x"},
                     14);
  }

  bench::print_title(
      "Figure 7b: decoding time breakdown, paper-scale layers (ms)",
      "DeepSZ phases: lossless + SZ + CSR reconstruction; Weightless "
      "measured on its largest feasible layer and scaled by dense size");

  bench::print_row({"network", "DSZ lossless", "DSZ SZ", "DSZ reconstr",
                    "DSZ total", "DeepComp", "Weightless*"},
                   14);
  for (const char* key : {"lenet5", "alexnet", "vgg16"}) {
    const auto& spec = modelzoo::paper_spec(key);
    auto layers = bench::paper_scale_layers(key);

    std::map<std::string, double> ebs;
    for (const auto& fc : spec.fc) ebs[fc.layer] = fc.chosen_eb;
    auto model = core::encode_model(layers, ebs, core::ContainerOptions{});

    // DeepSZ decode, serial so the lossless and eb_decode spans stage under
    // this span's label; the dense rebuild gets reconstruct spans.
    obs::TraceSpan dsz_span("decode_model", "bench");
    dsz_span.set_stage(spec.name);
    for (const auto& l :
         core::decode_model(model.bytes, /*parallel=*/false).layers) {
      core::DecodePhaseSpan reconstruct("reconstruct", l.name);
      volatile float sink = l.to_dense()[0];
      (void)sink;
    }
    const double dsz_ms = dsz_span.close();
    const auto dsz_phase_ms = [&](const char* phase) {
      return obs::Tracer::stage_total_ms(phase, spec.name);
    };

    // Deep Compression decode: Huffman streams + codebook + dense rebuild.
    std::vector<std::vector<std::uint8_t>> dc_blobs;
    for (const auto& l : layers) dc_blobs.push_back(baselines::dc_encode(l).blob);
    obs::TraceSpan dc_span("dc_decode", "bench");
    for (const auto& b : dc_blobs) {
      auto layer = baselines::dc_decode(b);
      volatile float sink = layer.to_dense()[0];
      (void)sink;
    }
    const double dc_ms = dc_span.close();

    // Weightless decode: measure the largest layer within the runtime cap
    // and scale linearly by total dense count (decode is O(n_dense)).
    double wl_ms = 0.0;
    {
      std::int64_t measured_dense = 0, total_dense = 0;
      double measured_ms = 0.0;
      for (const auto& l : layers) {
        total_dense += l.dense_count();
        if (l.dense_count() <= 8'000'000 && l.dense_count() > measured_dense) {
          auto blob = baselines::weightless_encode(l).blob;
          obs::TraceSpan wl_span("weightless_decode", "bench");
          auto dense = baselines::weightless_decode(blob);
          volatile float sink = dense.empty() ? 0.0f : dense[0];
          (void)sink;
          measured_ms = wl_span.close();
          measured_dense = l.dense_count();
        }
      }
      wl_ms = measured_dense > 0
                  ? measured_ms * static_cast<double>(total_dense) /
                        static_cast<double>(measured_dense)
                  : 0.0;
    }

    bench::print_row({spec.name, bench::fmt(dsz_phase_ms("lossless"), 1),
                      bench::fmt(dsz_phase_ms("eb_decode"), 1),
                      bench::fmt(dsz_phase_ms("reconstruct"), 1),
                      bench::fmt(dsz_ms, 1),
                      bench::fmt(dc_ms, 1), bench::fmt(wl_ms, 1)},
                     14);
  }
  std::printf(
      "* Weightless extrapolated from its largest measured layer "
      "(O(n_dense) decode)\n");

  bench::print_title(
      "Container v2: serial vs parallel per-layer codec execution",
      "multi-layer encode+decode wall time through ThreadPool::global(); "
      "parallel must be no worse, and faster on >= 2 hardware threads");

  std::printf("hardware threads: %zu\n\n",
              util::ThreadPool::global().size());
  bench::print_row({"network", "enc serial ms", "enc parallel ms",
                    "dec serial ms", "dec parallel ms", "speedup"},
                   16);
  for (const char* key : {"lenet5", "alexnet", "vgg16"}) {
    const auto& spec = modelzoo::paper_spec(key);
    auto layers = bench::paper_scale_layers(key);
    std::map<std::string, double> ebs;
    for (const auto& fc : spec.fc) ebs[fc.layer] = fc.chosen_eb;

    core::ContainerOptions serial;
    serial.parallel = false;
    core::ContainerOptions parallel;
    parallel.parallel = true;

    obs::TraceSpan enc_serial("encode_model", "bench");
    auto model_serial = core::encode_model(layers, ebs, serial);
    const double enc_serial_ms = enc_serial.close();
    obs::TraceSpan enc_parallel("encode_model", "bench");
    auto model_parallel = core::encode_model(layers, ebs, parallel);
    const double enc_parallel_ms = enc_parallel.close();

    obs::TraceSpan dec_serial("decode_model", "bench");
    core::decode_model(model_serial.bytes, /*parallel=*/false);
    const double dec_serial_ms = dec_serial.close();
    obs::TraceSpan dec_parallel("decode_model", "bench");
    core::decode_model(model_parallel.bytes, /*parallel=*/true);
    const double dec_parallel_ms = dec_parallel.close();

    const double speedup = (enc_serial_ms + dec_serial_ms) /
                           (enc_parallel_ms + dec_parallel_ms);
    bench::print_row({spec.name, bench::fmt(enc_serial_ms, 1),
                      bench::fmt(enc_parallel_ms, 1),
                      bench::fmt(dec_serial_ms, 1),
                      bench::fmt(dec_parallel_ms, 1),
                      bench::fmt(speedup, 2) + "x"},
                     16);
  }

  bench::print_title(
      "SZ stream v2: cold decode of one large fc layer",
      "64 Ki-float chunks carry their own Huffman table/outliers and decode "
      "independently across ThreadPool::global()");
  std::printf("hardware threads: %zu (DEEPSZ_THREADS overrides)\n\n",
              util::ThreadPool::global().size());
  {
    // A VGG-fc6-shaped pruned data array: 4096 x 8192 dense at 12.5%
    // density keeps ~4.2M values, so the error-bounded stream alone holds
    // >= 4M parameters — the single-layer cold-start case the serving
    // daemon pays on every cache miss.
    auto layer = data::synthesize_pruned_layer("fc6", 4096, 8192, 0.125, 11);
    std::printf("layer: %lld x %lld dense, %zu stored values\n\n",
                static_cast<long long>(layer.rows),
                static_cast<long long>(layer.cols), layer.data.size());

    bench::print_row({"stream", "bytes", "ratio", "encode ms",
                      "cold decode ms"},
                     15);
    obs::TraceSpan enc_span("sz_compress", "bench");
    auto stream = sz::compress(layer.data, sz::SzParams{});
    const double enc_ms = enc_span.close();
    double best = 1e300;  // best of three: cold decode, no warm cache help
    for (int rep = 0; rep < 3; ++rep) {
      obs::TraceSpan dec_span("sz_decompress", "bench");
      auto back = sz::decompress(stream);
      best = std::min(best, dec_span.close());
      if (back.size() != layer.data.size()) return 1;
    }
    const double ratio =
        static_cast<double>(layer.data.size() * sizeof(float)) /
        static_cast<double>(stream.size());
    bench::print_row({"sz-v2", std::to_string(stream.size()),
                      bench::fmt(ratio, 3), bench::fmt(enc_ms, 1),
                      bench::fmt(best, 1)},
                     15);
  }
  return 0;
}
