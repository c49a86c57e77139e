// End-to-end fine-tune loop: prune -> train with lossy checkpoints ->
// resume -> encode, and the emitted container must serve through
// ModelStore/InferenceSession with zero warm codec work.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/finetune.h"
#include "nn/loss.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "tests/compress/tiny_model.h"
#include "train/checkpoint.h"

namespace deepsz::compress {
namespace {

namespace fs = std::filesystem;

struct CkptDir {
  fs::path path;
  explicit CkptDir(const char* leaf)
      : path(fs::temp_directory_path() / leaf) {
    fs::remove_all(path);
  }
  ~CkptDir() { fs::remove_all(path); }
};

FinetuneSpec tiny_spec(const std::string& dir) {
  FinetuneSpec spec;
  spec.prune.keep_ratio = {{"fc1", 0.10}, {"fc2", 0.30}};
  spec.trainer.seed = 77;
  spec.checkpoint.dir = dir;
  spec.checkpoint.every = 10;
  spec.checkpoint.keep_last = 2;
  spec.checkpoint.default_eb = 1e-3;
  spec.checkpoint.assess_bounds = false;  // keep the test fast
  spec.steps = 80;
  return spec;
}

// Serves the container and returns warm-path top-1 accuracy; fails the test
// if the warm pass costs any codec work.
double serve_and_check_warm(const std::vector<std::uint8_t>& container,
                            testing::TinyModel& m) {
  serve::ModelStore store(container);
  store.warmup();
  store.reset_stats();

  serve::InferenceSession session(store, m.net);
  auto logits = session.infer(m.test.images);
  auto hits = nn::count_hits(logits, m.test.labels);

  auto stats = store.stats();
  EXPECT_EQ(stats.misses, 0u) << "warm serve decoded a layer";
  return static_cast<double>(hits.top1) / static_cast<double>(hits.total);
}

TEST(Finetune, PruneTuneEncodeServesWarmWithZeroCodecWork) {
  CkptDir dir("deepsz_finetune_test");
  auto m = testing::make_tiny_pruned(false);
  FinetuneSpec spec = tiny_spec(dir.path.string());

  FinetuneReport report = finetune_and_encode(
      m.net, m.train.images, m.train.labels, m.test.images, m.test.labels,
      spec);

  EXPECT_EQ(report.start_step, 0);
  EXPECT_EQ(report.end_step, 80);
  // every=10 over 80 steps writes 8, keep_last=2 retains the newest two,
  // and the final forced write dedups with the step-80 periodic one.
  ASSERT_EQ(report.checkpoints.size(), 2u);
  EXPECT_TRUE(fs::exists(report.checkpoints.back()));
  EXPECT_EQ(report.checkpoint_bounds.count("fc1"), 1u);
  EXPECT_EQ(report.checkpoint_bounds.count("fc2"), 1u);
  EXPECT_FALSE(report.compress.model.bytes.empty());
  // Fine-tuning a freshly pruned net must recover accuracy, not lose it.
  EXPECT_GE(report.acc_tuned.top1, report.acc_start.top1 - 0.02);

  const double served = serve_and_check_warm(report.compress.model.bytes, m);
  EXPECT_GT(served, 0.5);
  EXPECT_NEAR(served, report.acc_tuned.top1, 0.15);  // lossy encode slack
}

TEST(Finetune, ResumesFromLossyCheckpointAndEmitsServableContainer) {
  CkptDir dir("deepsz_finetune_resume_test");

  // Phase 1: prune + tune to step 80, leaving checkpoints behind.
  auto first = testing::make_tiny_pruned(false);
  FinetuneSpec spec = tiny_spec(dir.path.string());
  FinetuneReport phase1 = finetune_and_encode(
      first.net, first.train.images, first.train.labels, first.test.images,
      first.test.labels, spec);
  ASSERT_FALSE(phase1.checkpoints.empty());
  const std::string last = phase1.checkpoints.back();

  // Phase 2: a fresh process (fresh net) resumes from the lossy checkpoint
  // and fine-tunes further. The checkpoint carries the masks; no prune pass
  // runs.
  auto second = testing::make_tiny_pruned(false);
  FinetuneSpec resume = tiny_spec(dir.path.string());
  resume.resume_from = last;
  resume.steps = 110;
  FinetuneReport phase2 = finetune_and_encode(
      second.net, second.train.images, second.train.labels,
      second.test.images, second.test.labels, resume);

  EXPECT_EQ(phase2.start_step, 80);
  EXPECT_EQ(phase2.end_step, 110);
  // The restored net must still be pruned — every fc layer masked, and the
  // resumed accuracy in the same ballpark the checkpointed run reached.
  for (nn::Dense* d : second.net.dense_layers()) {
    EXPECT_TRUE(d->has_mask()) << d->name();
  }
  EXPECT_NEAR(phase2.acc_start.top1, phase1.acc_tuned.top1, 0.05)
      << "lossy restore moved accuracy more than the bounds allow";

  const double served =
      serve_and_check_warm(phase2.compress.model.bytes, second);
  EXPECT_GT(served, 0.5);
}

TEST(Finetune, RejectsSpecWithNoMaskedLayers) {
  auto m = testing::make_tiny_pruned(false);
  FinetuneSpec spec;  // no keep_ratio, no resume -> nothing is pruned
  spec.steps = 1;
  EXPECT_THROW(finetune_and_encode(m.net, m.train.images, m.train.labels,
                                   m.test.images, m.test.labels, spec),
               std::invalid_argument);
}

TEST(Finetune, RejectsMissingResumeFile) {
  auto m = testing::make_tiny_pruned(false);
  FinetuneSpec spec;
  spec.resume_from = "/nonexistent/ckpt.dszk";
  EXPECT_THROW(finetune_and_encode(m.net, m.train.images, m.train.labels,
                                   m.test.images, m.test.labels, spec),
               std::runtime_error);
}

}  // namespace
}  // namespace deepsz::compress
