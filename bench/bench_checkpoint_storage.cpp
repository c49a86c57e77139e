// Checkpoint storage bench + acceptance gates for the training loop:
//
//   [gate A] error-bounded (sz) checkpoints are >= 8x smaller than the f32
//            lossless baseline on LeNet-300
//   [gate B] a run resumed from a lossy checkpoint lands within the expected
//            accuracy tolerance of the uninterrupted lossless baseline
//   [gate C] a pruned-model fine-tune resumed from a lossy checkpoint emits
//            a v3 container that serves through ModelStore/InferenceSession
//            with zero warm codec work
//
// Exits nonzero if any gate fails, so CI can run it as a check.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "compress/finetune.h"
#include "data/synthetic_mnist.h"
#include "modelzoo/zoo.h"
#include "nn/init.h"
#include "nn/loss.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "train/checkpoint.h"
#include "train/trainer.h"

using namespace deepsz;

namespace {

int g_failures = 0;

void gate(const char* name, bool ok, const std::string& detail) {
  std::printf("  [%s] %s: %s\n", ok ? "PASS" : "FAIL", name, detail.c_str());
  if (!ok) ++g_failures;
}

struct Workload {
  nn::Network net;
  data::Dataset train;
  data::Dataset test;
};

Workload make_workload(const std::string& model, std::int64_t train_n) {
  Workload w;
  w.net = model == "tiny" ? modelzoo::make_tiny_fc()
                          : modelzoo::make_by_key(model);
  nn::he_initialize(w.net, 0x717e);
  w.train = data::synthetic_mnist(train_n, 0x7a11);
  w.test = data::synthetic_mnist(256, 0xbe22);
  return w;
}

std::size_t checkpoint_size(train::Trainer& trainer,
                            const std::string& data_codec, double eb) {
  train::CheckpointOptions options;
  options.data_codec = data_codec;
  options.lossless_codec = "zstd";
  options.default_eb = eb;
  return train::write_checkpoint(trainer.capture(), options).size();
}

void bench_sizes() {
  bench::print_title(
      "Checkpoint storage: LeNet-300 training state (weights + momentum)",
      "f32 = lossless baseline; sz rows are error-bounded checkpoints");

  auto w = make_workload("lenet300", 512);
  train::TrainerConfig cfg;
  cfg.seed = 42;
  train::Trainer trainer(w.net, w.train.images, w.train.labels, w.test.images,
                         w.test.labels, cfg);
  trainer.run_to(8);  // momentum is populated, weights are off-init

  const std::size_t f32 = checkpoint_size(trainer, "f32", 0.0);
  bench::print_row({"codec", "eb", "bytes", "vs f32"}, 14);
  bench::print_row({"f32", "0", bench::fmt_bytes(f32), "1.00x"}, 14);

  double ratio_at_1e3 = 0.0;
  for (double eb : {1e-2, 1e-3, 1e-4}) {
    const std::size_t sz = checkpoint_size(trainer, "sz", eb);
    const double ratio =
        static_cast<double>(f32) / static_cast<double>(sz);
    if (eb == 1e-3) ratio_at_1e3 = ratio;
    bench::print_row({"sz", bench::fmt(eb, 4), bench::fmt_bytes(sz),
                      bench::fmt(ratio, 2) + "x"},
                     14);
  }

  gate("sz checkpoint >= 8x smaller than f32", ratio_at_1e3 >= 8.0,
       "eb 1e-3 ratio " + bench::fmt(ratio_at_1e3, 2) + "x (need >= 8x)");
}

void bench_resume_fidelity() {
  bench::print_title(
      "Resume fidelity: interrupted lossy run vs uninterrupted baseline",
      "LeNet-300, 60 steps; kill at step 30, resume from an sz checkpoint");

  const double kEb = 1e-3;
  const double kExpectedAcc = 0.02;
  const std::int64_t kKill = 30, kEnd = 60;
  train::TrainerConfig cfg;
  cfg.seed = 42;

  // Baseline: straight run, never checkpointed, never perturbed.
  auto base = make_workload("lenet300", 512);
  train::Trainer baseline(base.net, base.train.images, base.train.labels,
                          base.test.images, base.test.labels, cfg);
  baseline.run_to(kEnd);
  const double base_acc = baseline.evaluate().top1;

  // Interrupted run: same seed, killed at kKill, resumed from a lossy
  // checkpoint in a fresh network, driven to the same step count.
  auto part = make_workload("lenet300", 512);
  train::Trainer interrupted(part.net, part.train.images, part.train.labels,
                             part.test.images, part.test.labels, cfg);
  interrupted.run_to(kKill);
  train::CheckpointOptions options;
  options.data_codec = "sz";
  options.lossless_codec = "zstd";
  options.default_eb = kEb;
  auto bytes = train::write_checkpoint(interrupted.capture(), options);

  auto fresh = make_workload("lenet300", 512);
  nn::he_initialize(fresh.net, 0xdead);  // different init: fully replaced
  train::Trainer resumed(fresh.net, fresh.train.images, fresh.train.labels,
                         fresh.test.images, fresh.test.labels, cfg);
  resumed.restore(train::read_checkpoint(bytes));
  resumed.run_to(kEnd);
  const double resumed_acc = resumed.evaluate().top1;

  bench::print_row({"run", "final top-1"}, 18);
  bench::print_row({"baseline", bench::fmt_pct(base_acc)}, 18);
  bench::print_row({"resumed (lossy)", bench::fmt_pct(resumed_acc)}, 18);

  const double delta = std::abs(base_acc - resumed_acc);
  gate("resumed accuracy within tolerance", delta <= kExpectedAcc,
       "|" + bench::fmt_pct(base_acc) + " - " + bench::fmt_pct(resumed_acc) +
           "| = " + bench::fmt_pct(delta) + " (allowed " +
           bench::fmt_pct(kExpectedAcc) + ")");
}

void bench_finetune_serve() {
  bench::print_title(
      "Fine-tune -> resume -> serve: lossy checkpoint to v3 container",
      "tiny-fc pruned 10%/30%; resumed run's container must serve warm");

  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "deepsz_bench_ckpts";
  fs::remove_all(dir);

  auto w = make_workload("tiny", 256);
  {
    // Pre-train briefly so pruning has a trained net to cut from — the
    // realistic fine-tune setting, and the accuracy the gate measures.
    train::TrainerConfig pre;
    pre.seed = 7;
    train::Trainer t(w.net, w.train.images, w.train.labels, w.test.images,
                     w.test.labels, pre);
    t.run_to(60);
  }
  compress::FinetuneSpec spec;
  spec.prune.keep_ratio = {{"fc1", 0.10}, {"fc2", 0.30}};
  spec.trainer.seed = 77;
  spec.checkpoint.dir = (dir / "phase1").string();
  spec.checkpoint.every = 20;
  spec.checkpoint.assess_bounds = false;
  spec.checkpoint.default_eb = 1e-3;
  spec.steps = 80;
  auto phase1 = compress::finetune_and_encode(
      w.net, w.train.images, w.train.labels, w.test.images, w.test.labels,
      spec);

  auto w2 = make_workload("tiny", 256);
  compress::FinetuneSpec resume = spec;
  resume.resume_from = phase1.checkpoints.back();
  resume.steps = 120;
  auto phase2 = compress::finetune_and_encode(
      w2.net, w2.train.images, w2.train.labels, w2.test.images,
      w2.test.labels, resume);

  serve::ModelStore store(phase2.compress.model.bytes);
  store.warmup();
  store.reset_stats();
  serve::InferenceSession session(store, w2.net);
  auto logits = session.infer(w2.test.images);
  auto hits = nn::count_hits(logits, w2.test.labels);
  const auto stats = store.stats();
  const double acc =
      static_cast<double>(hits.top1) / static_cast<double>(hits.total);

  bench::print_row({"metric", "value"}, 22);
  bench::print_row({"resumed at step", std::to_string(phase2.start_step)}, 22);
  bench::print_row({"container", bench::fmt_bytes(
                                     phase2.compress.model.bytes.size())},
                   22);
  bench::print_row({"served top-1", bench::fmt_pct(acc)}, 22);
  bench::print_row({"warm misses", std::to_string(stats.misses)}, 22);

  gate("resumed fine-tune emits servable container",
       phase2.start_step > 0 && acc > 0.5,
       "resumed at step " + std::to_string(phase2.start_step) +
           ", served top-1 " + bench::fmt_pct(acc));
  gate("zero warm codec work", stats.misses == 0,
       std::to_string(stats.misses) + " misses");

  fs::remove_all(dir);
}

}  // namespace

int main() {
  bench_sizes();
  bench_resume_fidelity();
  bench_finetune_serve();
  std::printf("\n%s\n", g_failures == 0 ? "all gates passed"
                                        : "GATE FAILURES — see above");
  return g_failures == 0 ? 0 : 1;
}
