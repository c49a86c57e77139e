// CompressionSession semantics: stage ordering, per-stage reports, stage
// re-use (re-optimize under a new budget without re-assessing), cooperative
// cancellation.
#include <gtest/gtest.h>

#include "compress/registry.h"
#include "compress/session.h"
#include "nn/layers.h"
#include "tests/compress/tiny_model.h"

namespace deepsz {
namespace {

using compress::CompressionSession;
using compress::Stage;

compress::CompressSpec tiny_spec() {
  compress::CompressSpec spec;
  spec.prune.keep_ratio = {{"fc1", 0.10}, {"fc2", 0.30}};
  spec.prune.retrain_epochs = 1;
  spec.expected_acc_loss = 0.02;
  return spec;
}

CompressionSession make_session(testing::TinyModel& m,
                                const std::string& strategy,
                                compress::CompressSpec spec) {
  return CompressionSession(
      compress::CompressorRegistry::instance().make(strategy), m.net,
      m.train.images, m.train.labels, m.test.images, m.test.labels,
      std::move(spec));
}

TEST(CompressionSessionTest, StagesRequireTheirPredecessors) {
  auto m = testing::make_tiny_pruned(/*prune=*/false);
  auto session = make_session(m, "deepsz", tiny_spec());
  EXPECT_THROW(session.run_assess(), std::logic_error);
  EXPECT_THROW(session.run_optimize(), std::logic_error);
  EXPECT_THROW(session.run_encode(), std::logic_error);
  EXPECT_THROW(session.report(), std::logic_error);
}

TEST(CompressionSessionTest, FullRunReportsEveryStage) {
  auto m = testing::make_tiny_pruned(/*prune=*/false);
  auto session = make_session(m, "deepsz", tiny_spec());
  auto report = session.run();

  for (int i = 0; i < compress::kNumStages; ++i) {
    const auto& r = report.stages[i];
    EXPECT_TRUE(r.done) << stage_name(static_cast<Stage>(i));
    EXPECT_FALSE(r.skipped) << stage_name(static_cast<Stage>(i));
    EXPECT_EQ(r.runs, 1) << stage_name(static_cast<Stage>(i));
    EXPECT_FALSE(r.detail.empty());
  }
  EXPECT_FALSE(report.model.bytes.empty());
  EXPECT_FALSE(report.assessments.empty());
  EXPECT_FALSE(report.chosen.choices.empty());
  EXPECT_GT(report.compression_ratio, 1.0);
}

TEST(CompressionSessionTest, BaselinesSkipAssessAndOptimize) {
  auto m = testing::make_tiny_pruned();
  auto session = make_session(m, "deep-compression", tiny_spec());
  session.adopt_pruned();
  auto report = session.run();

  EXPECT_FALSE(report.stages[static_cast<int>(Stage::kPrune)].skipped);
  EXPECT_TRUE(report.stages[static_cast<int>(Stage::kAssess)].skipped);
  EXPECT_TRUE(report.stages[static_cast<int>(Stage::kOptimize)].skipped);
  EXPECT_FALSE(report.stages[static_cast<int>(Stage::kEncode)].skipped);
  EXPECT_TRUE(report.assessments.empty());
  EXPECT_FALSE(report.model.bytes.empty());
}

TEST(CompressionSessionTest, ReOptimizeWithNewBudgetReusesAssessment) {
  auto m = testing::make_tiny_pruned();
  auto session = make_session(m, "deepsz", tiny_spec());
  session.adopt_pruned();
  auto first = session.run();
  ASSERT_EQ(session.stage_report(Stage::kAssess).runs, 1);
  const auto assessments_before = first.assessments;

  // Tighten the accuracy budget: Optimize+Encode rerun, Assess does not.
  session.set_expected_acc_loss(0.004);
  EXPECT_TRUE(session.stage_done(Stage::kAssess));
  EXPECT_FALSE(session.stage_done(Stage::kOptimize));
  EXPECT_FALSE(session.stage_done(Stage::kEncode));
  auto second = session.run();

  EXPECT_EQ(session.stage_report(Stage::kAssess).runs, 1);
  EXPECT_EQ(session.stage_report(Stage::kOptimize).runs, 2);
  EXPECT_EQ(session.stage_report(Stage::kEncode).runs, 2);
  ASSERT_EQ(second.assessments.size(), assessments_before.size());
  for (std::size_t i = 0; i < assessments_before.size(); ++i) {
    // Bit-for-bit the same assessment objects — nothing re-measured.
    EXPECT_EQ(second.assessments[i].points.size(),
              assessments_before[i].points.size());
  }
  // A tighter budget can only shrink the permitted degradation.
  EXPECT_LE(second.chosen.expected_total_drop, 0.004 + 1e-12);
  EXPECT_FALSE(second.model.bytes.empty());

  // Expected-ratio mode over the same assessment: payload fits the budget.
  session.set_target_ratio(8.0);
  auto third = session.run();
  EXPECT_EQ(session.stage_report(Stage::kAssess).runs, 1);
  EXPECT_EQ(session.stage_report(Stage::kOptimize).runs, 3);
  EXPECT_LE(third.chosen.total_bytes, third.dense_fc_bytes / 8);
}

TEST(CompressionSessionTest, CancelBeforeAStageThrowsAndIsRecoverable) {
  auto m = testing::make_tiny_pruned(/*prune=*/false);
  auto session = make_session(m, "deepsz", tiny_spec());
  session.request_cancel();
  EXPECT_THROW(session.run_prune(), compress::Cancelled);
  EXPECT_FALSE(session.stage_done(Stage::kPrune));

  session.clear_cancel();
  EXPECT_NO_THROW(session.run_prune());
  EXPECT_TRUE(session.stage_done(Stage::kPrune));
}

TEST(CompressionSessionTest, CancelMidAssessLeavesSessionUsable) {
  auto m = testing::make_tiny_pruned();
  auto session = make_session(m, "deepsz", tiny_spec());
  session.adopt_pruned();
  const auto pruned_top1 = session.state().acc_pruned.top1;

  // Cancel from inside the assessment via the progress callback, after the
  // first tested bound reports progress.
  int assess_events = 0;
  session.set_progress([&](Stage stage, const std::string&) {
    if (stage == Stage::kAssess && ++assess_events == 2) {
      session.request_cancel();
    }
  });
  EXPECT_THROW(session.run_assess(), compress::Cancelled);
  EXPECT_FALSE(session.stage_done(Stage::kAssess));
  EXPECT_TRUE(session.state().assessments.empty());

  // The cancelled assessment restored the pruned weights: the network
  // still measures the same accuracy, and the session can rerun cleanly.
  EXPECT_DOUBLE_EQ(nn::evaluate(m.net, m.test.images, m.test.labels).top1,
                   pruned_top1);
  session.clear_cancel();
  session.set_progress(nullptr);
  EXPECT_NO_THROW(session.run_assess());
  EXPECT_TRUE(session.stage_done(Stage::kAssess));
  auto report = session.run();
  EXPECT_FALSE(report.model.bytes.empty());
}

/// The session reads the pruned and decoded accuracies from its trunk-caching
/// oracle; both must equal a full nn::evaluate pass exactly. The test sets
/// span several batches of both (evaluate: 128, oracle: 256).
void expect_accuracies_match_evaluate(testing::TinyModel& m,
                                      compress::CompressSpec spec) {
  auto session = make_session(m, "deepsz", std::move(spec));
  session.run_prune();
  const auto pruned = nn::evaluate(m.net, m.test.images, m.test.labels);
  auto report = session.run();
  const auto decoded = nn::evaluate(m.net, m.test.images, m.test.labels);
  EXPECT_EQ(report.acc_pruned.top1, pruned.top1);
  EXPECT_EQ(report.acc_pruned.top5, pruned.top5);
  EXPECT_EQ(report.acc_decoded.top1, decoded.top1);
  EXPECT_EQ(report.acc_decoded.top5, decoded.top5);
}

TEST(CompressionSessionTest, ReportedAccuraciesEqualFullEvaluate) {
  auto tiny = testing::make_tiny_pruned(/*prune=*/false);
  tiny.test = data::synthetic_mnist(300, 0xbe23);
  expect_accuracies_match_evaluate(tiny, tiny_spec());

  // A conv trunk, so the oracle's cached features stand in for a real
  // trunk pass.
  testing::TinyModel conv;
  conv.net.add<nn::Conv2D>(1, 4, 3, 1, 1);
  conv.net.add<nn::ReLU>();
  conv.net.add<nn::MaxPool2D>(2, 2);
  conv.net.add<nn::Flatten>();
  conv.net.add<nn::Dense>(4 * 4 * 4, 16)->set_name("fc1");
  conv.net.add<nn::ReLU>();
  conv.net.add<nn::Dense>(16, 3)->set_name("fc2");
  nn::he_initialize(conv.net, 71);
  util::Pcg32 rng(72);
  for (auto* set : {&conv.train, &conv.test}) {
    const std::int64_t n = 300;
    set->images = nn::Tensor({n, 1, 8, 8});
    set->labels.resize(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      const int cls = static_cast<int>(i % 3);
      set->labels[static_cast<std::size_t>(i)] = cls;
      for (int p = 0; p < 64; ++p) {
        set->images[i * 64 + p] =
            static_cast<float>(rng.normal(0.3 * cls, 0.2));
      }
    }
  }
  compress::CompressSpec spec = tiny_spec();
  spec.prune.keep_ratio = {{"fc1", 0.30}, {"fc2", 0.50}};
  expect_accuracies_match_evaluate(conv, std::move(spec));
}

}  // namespace
}  // namespace deepsz
