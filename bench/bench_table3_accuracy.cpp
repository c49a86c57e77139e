// Table 3: inference accuracy of the DeepSZ-compressed networks vs the
// originals, from full end-to-end pipeline runs (prune -> assess -> optimize
// -> encode -> decode -> evaluate) on the trainable-scale networks.
//
// Claims to reproduce, in shape: top-1 loss stays within the configured
// expected loss (0.2% LeNets / 0.4% AlexNet-VGG in the paper), while the
// fc-layers compress by tens to >100x.
#include <cstdio>

#include "bench_util.h"
#include "compress/registry.h"
#include "compress/session.h"

using namespace deepsz;

int main() {
  bench::print_title(
      "Table 3: accuracy of DeepSZ-compressed networks (paper values in "
      "parentheses)",
      "end-to-end pipeline on trainable-scale networks; synthetic datasets");

  // "top-1 pruned" separates the pruning step's loss (the paper prunes with
  // many retraining epochs; we use 2) from the compression loss DeepSZ
  // bounds (DeepSZ minus pruned).
  bench::print_row({"network", "top-1 orig", "top-1 pruned", "top-1 DeepSZ",
                    "top-5 orig", "top-5 DeepSZ", "fc ratio", "(paper)"},
                   15);
  for (const char* key : {"lenet300", "lenet5", "alexnet", "vgg16"}) {
    const auto& spec = modelzoo::paper_spec(key);
    auto m = modelzoo::pretrained(key);

    compress::CompressSpec cspec;
    for (const auto& fc : spec.fc) {
      cspec.prune.keep_ratio[fc.layer] = fc.keep_ratio;
    }
    cspec.prune.retrain_epochs = 2;
    cspec.expected_acc_loss = bench::assessment_budget(spec, m.test.size());
    compress::CompressionSession session(
        compress::CompressorRegistry::instance().make("deepsz"), m.net,
        m.train.images, m.train.labels, m.test.images, m.test.labels, cspec);
    auto report = session.run();

    bench::print_row(
        {spec.name, bench::fmt_pct(report.acc_original.top1),
         bench::fmt_pct(report.acc_pruned.top1),
         bench::fmt_pct(report.acc_decoded.top1),
         bench::fmt_pct(report.acc_original.top5),
         bench::fmt_pct(report.acc_decoded.top5),
         bench::fmt(report.compression_ratio, 1) + "x",
         "(" + bench::fmt(spec.paper_overall_cr_deepsz, 1) + "x)"},
        15);
  }
  return 0;
}
