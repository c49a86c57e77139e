// Table 1: architectures of the example neural networks — layer counts, fc
// shapes, forward times, total size, and the fc-layers' share of storage.
//
// Paper-scale shapes/sizes come from the paper specs; forward times are
// measured on the CPU-trainable networks (the paper measured a V100), so the
// timing columns demonstrate the same *structure* — convolutions dominate
// compute while fc-layers dominate storage — not the same milliseconds.
#include <cstdio>

#include "bench_util.h"
#include "modelzoo/zoo.h"
#include "nn/layers.h"
#include "obs/trace.h"

using namespace deepsz;

namespace {

struct FwdTimes {
  double conv_ms = 0.0;
  double fc_ms = 0.0;
};

/// Measures per-layer forward time over a batch, attributing each layer to
/// the conv or fc bucket (pool/activation time rides with its bucket).
FwdTimes measure_forward(nn::Network& net, const nn::Tensor& batch) {
  FwdTimes times;
  bool seen_dense = false;
  nn::Tensor cur = batch;
  // Warm-up pass.
  net.forward(batch);
  for (const auto& layer : net.layers()) {
    if (layer->kind() == "dense") seen_dense = true;
    obs::TraceSpan span("layer_forward", "bench");
    cur = layer->forward(cur, false);
    (seen_dense ? times.fc_ms : times.conv_ms) += span.close();
  }
  return times;
}

}  // namespace

int main() {
  bench::print_title(
      "Table 1: Architectures of example neural networks",
      "shapes/sizes at paper scale; fwd times measured on the CPU-trainable "
      "variants (paper: V100)");

  bench::print_row({"network", "conv", "fc", "fc shapes (out x in)", "", "",
                    "total size", "fc share"},
                   14);
  for (const auto& spec : modelzoo::all_paper_specs()) {
    std::vector<std::string> cells = {spec.name,
                                      std::to_string(spec.conv_layers),
                                      std::to_string(spec.fc_layers)};
    for (std::size_t i = 0; i < 3; ++i) {
      if (i < spec.fc.size()) {
        cells.push_back(std::to_string(spec.fc[i].rows) + "x" +
                        std::to_string(spec.fc[i].cols));
      } else {
        cells.push_back("-");
      }
    }
    cells.push_back(bench::fmt(spec.total_mb, 1) + " MB");
    cells.push_back(bench::fmt(spec.fc_share_pct, 1) + "%");
    bench::print_row(cells, 14);
  }

  bench::print_title("Forward-time split (measured, batch of 32)",
                     "paper reports conv >> fc in time; fc >> conv in bytes");
  bench::print_row({"network", "conv+pool ms", "fc ms", "conv share",
                    "fc param bytes", "fc param share"},
                   16);
  for (const auto& spec : modelzoo::all_paper_specs()) {
    auto net = modelzoo::make_by_key(spec.key);
    const bool mnist = spec.key == "lenet300" || spec.key == "lenet5";
    nn::Tensor batch(mnist ? std::vector<std::int64_t>{32, 1, 28, 28}
                           : std::vector<std::int64_t>{32, 3, 32, 32});
    auto times = measure_forward(net, batch);
    std::int64_t fc_params = 0, all_params = net.param_count();
    for (auto* d : net.dense_layers()) {
      fc_params += d->weight().numel() + d->bias().numel();
    }
    double conv_share =
        times.conv_ms + times.fc_ms > 0
            ? times.conv_ms / (times.conv_ms + times.fc_ms)
            : 0.0;
    bench::print_row(
        {net.name(), bench::fmt(times.conv_ms, 2), bench::fmt(times.fc_ms, 2),
         bench::fmt_pct(conv_share, 1),
         bench::fmt_bytes(static_cast<std::size_t>(fc_params) * 4),
         bench::fmt_pct(static_cast<double>(fc_params) / all_params, 1)},
        16);
  }
  return 0;
}
