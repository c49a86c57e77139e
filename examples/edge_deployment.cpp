// Edge-deployment scenario (the paper's motivating use case, Section 1):
// a model is trained and compressed "in the cloud", transferred over a
// bandwidth-limited link, and decoded on the device before inference.
//
// This example quantifies exactly what DeepSZ buys on that path for the
// AlexNet-style network: transfer bytes at 2G/3G/4G link speeds, decode
// latency, and the accuracy retained — compared against shipping the raw
// fp32 fc-layers or the CSR-pruned network.
#include <cstdio>

#include "compress/registry.h"
#include "compress/session.h"
#include "modelzoo/paper_specs.h"
#include "modelzoo/pretrained.h"
#include "obs/trace.h"

namespace {

void print_transfer(const char* label, std::size_t bytes) {
  // Link speeds: 2G ~0.1 Mbit/s effective, 3G ~2 Mbit/s, 4G ~20 Mbit/s.
  const double mbits = bytes * 8.0 / 1e6;
  std::printf("  %-22s %10.1f KB   2G: %7.1f s   3G: %6.2f s   4G: %5.2f s\n",
              label, bytes / 1024.0, mbits / 0.1, mbits / 2.0, mbits / 20.0);
}

}  // namespace

int main() {
  using namespace deepsz;
  auto m = modelzoo::pretrained("alexnet");
  const auto& spec = modelzoo::paper_spec("alexnet");

  compress::CompressSpec cspec;
  for (const auto& fc : spec.fc) {
    cspec.prune.keep_ratio[fc.layer] = fc.keep_ratio;
  }
  cspec.prune.retrain_epochs = 2;
  cspec.expected_acc_loss = 0.004;
  // Index arrays ride any registered lossless codec; Zstandard-class is
  // Figure 4's winner and the default ("gzip", "blosc:typesize=1", ... also
  // work — see `deepsz_tool codecs`).
  cspec.index_codec = "zstd";

  compress::CompressionSession session(
      compress::CompressorRegistry::instance().make("deepsz"), m.net,
      m.train.images, m.train.labels, m.test.images, m.test.labels, cspec);
  auto report = session.run();

  std::printf("AlexNet-mini on synthetic ImageNet-20\n");
  std::printf("cloud-side encode took %.1f s (no retraining needed)\n\n",
              report.encode_seconds);
  std::printf("transfer cost of the fc-layers:\n");
  print_transfer("raw fp32", report.dense_fc_bytes);
  print_transfer("pruned CSR", report.csr_bytes);
  print_transfer("DeepSZ", report.model.compressed_payload_bytes());

  // Device-side decode; serial, so the phase spans stage under "device".
  obs::TraceSpan decode("decode_model", "example");
  decode.set_stage("device");
  core::decode_model(report.model.bytes, /*parallel=*/false);
  const double decode_ms = decode.close();
  std::printf("\ndevice-side decode: %.1f ms total (lossless %.1f ms, SZ %.1f "
              "ms)\n",
              decode_ms, obs::Tracer::stage_total_ms("lossless", "device"),
              obs::Tracer::stage_total_ms("eb_decode", "device"));

  // Inference cost dwarfs decode cost, as the paper argues.
  auto batch = nn::slice_batch(m.test.images, 0, 50);
  obs::TraceSpan forward("forward", "example");
  m.net.forward(batch);
  const double forward_ms = forward.close();
  std::printf("one 50-image forward pass: %.1f ms (decode is %.1f%% of it)\n",
              forward_ms, 100.0 * decode_ms / forward_ms);

  std::printf("\naccuracy: %.2f%% original -> %.2f%% deployed (top-1), "
              "%.2f%% -> %.2f%% (top-5)\n",
              report.acc_original.top1 * 100, report.acc_decoded.top1 * 100,
              report.acc_original.top5 * 100, report.acc_decoded.top5 * 100);
  return 0;
}
