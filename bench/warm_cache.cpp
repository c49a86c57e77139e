// Pre-trains and caches every model, pruned model and paper-scale layer used
// by the benchmark suite so that the individual benches run fast. Safe to run
// repeatedly; everything is cached under modelzoo::cache_dir().
#include <cstdio>

#include "bench_util.h"
#include "obs/trace.h"

int main() {
  using namespace deepsz;
  const auto elapsed_s = [t0 = obs::now_ns()] {
    return static_cast<double>(obs::now_ns() - t0) / 1e9;
  };
  for (const char* key : {"lenet300", "lenet5", "alexnet", "vgg16"}) {
    auto m = modelzoo::pretrained(key);
    std::printf("%-10s trained  top1=%.4f top5=%.4f  (%.1fs elapsed)\n", key,
                m.base.top1, m.base.top5, elapsed_s());
    auto pm = bench::pretrained_pruned(key);
    std::printf("%-10s pruned   top1=%.4f           (%.1fs elapsed)\n", key,
                pm.base_pruned.top1, elapsed_s());
    std::fflush(stdout);
  }
  for (const char* key : {"alexnet", "vgg16"}) {
    auto layers = bench::paper_scale_layers(key);
    std::printf("%-10s paper-scale layers synthesized (%zu)  (%.1fs)\n", key,
                layers.size(), elapsed_s());
    std::fflush(stdout);
  }
  std::printf("cache warm in %.1fs at %s\n", elapsed_s(),
              modelzoo::cache_dir().c_str());
  return 0;
}
