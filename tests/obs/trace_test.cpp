// Tracing subsystem: ring semantics, RAII spans as the one stopwatch,
// drop-oldest accounting, stage histograms (fed with tracing on or off),
// concurrent snapshot safety, and the Chrome JSON export.
//
// Tracer state is process-global, so every test starts from a clean slate
// (fixture enables + resets) and disables tracing on the way out — other
// suites in this binary must never see spans recorded.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "compress/registry.h"
#include "compress/session.h"
#include "obs/export.h"
#include "server/scheduler.h"
#include "tests/compress/tiny_model.h"
#include "tests/server/test_containers.h"

namespace deepsz::obs {
namespace {

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::set_enabled(true);
    Tracer::reset();
  }
  void TearDown() override {
    Tracer::set_enabled(false);
    Tracer::reset();
    Tracer::set_ring_capacity(4096);
  }
};

TEST_F(ObsTraceTest, SpanRecordsNameCategoryAndLabels) {
  {
    TraceSpan span("unit_op", "test");
    span.set_detail("layer-x");
    span.set_phase("warm");
  }
  auto snap = Tracer::snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  const TraceEvent& e = snap.events[0];
  EXPECT_STREQ(e.name, "unit_op");
  EXPECT_STREQ(e.category, "test");
  EXPECT_STREQ(e.detail, "layer-x");
  EXPECT_STREQ(e.phase, "warm");
  EXPECT_EQ(snap.dropped, 0u);
}

TEST_F(ObsTraceTest, CloseIsIdempotent) {
  TraceSpan span("once", "test");
  const double ms = span.close();
  EXPECT_EQ(span.close(), ms);
  EXPECT_FALSE(span.active());
  EXPECT_EQ(Tracer::snapshot().events.size(), 1u);
}

TEST_F(ObsTraceTest, NestedSpansInheritTheStageModel) {
  {
    TraceSpan outer("decode", "test");
    outer.set_stage("lenet");
    TraceSpan("lossless", "test").set_stage();
    TraceSpan("forward", "test").set_stage("other");
    TraceSpan("eb_decode", "test").set_stage();  // "lenet" again
  }
  TraceSpan("reconstruct", "test").set_stage();  // no staged span open
  std::set<std::string> seen;
  for (const auto& st : Tracer::stage_snapshot()) {
    seen.insert(st.stage + "/" + st.model);
  }
  EXPECT_EQ(seen, (std::set<std::string>{"decode/lenet", "lossless/lenet",
                                         "forward/other", "eb_decode/lenet"}));
}

TEST_F(ObsTraceTest, DisabledSpanIsInertEvenIfEnabledLater) {
  Tracer::set_enabled(false);
  TraceSpan span("ghost", "test");
  span.set_stage("m");
  Tracer::set_enabled(true);  // mid-span enable must not half-time it
  const std::uint64_t t0 = now_ns();
  while (now_ns() - t0 < 200'000) {
  }
  // Only the ring write is gated: the span still times itself and feeds
  // its stage histogram.
  const double ms = span.close();
  EXPECT_GE(ms, 0.2);
  EXPECT_EQ(Tracer::snapshot().events.size(), 0u);
  EXPECT_DOUBLE_EQ(Tracer::stage_total_ms("ghost", "m"), ms);
  EXPECT_EQ(Tracer::stage_total_ms("ghost", "other"), 0.0);
}

TEST_F(ObsTraceTest, LongLabelsTruncateWithNulTermination) {
  const std::string big(100, 'x');
  {
    TraceSpan span("trunc", "test");
    span.set_detail(big);
  }
  auto snap = Tracer::snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(std::string(snap.events[0].detail), std::string(kArgBytes - 1, 'x'));
}

TEST_F(ObsTraceTest, DropOldestKeepsNewestAndCounts) {
  Tracer::reset();
  Tracer::set_ring_capacity(8);
  // A fresh thread gets a fresh (capacity-8) ring; the main thread's ring
  // predates the capacity change.
  std::thread([&] {
    for (int i = 0; i < 20; ++i) {
      Tracer::emit("e", "test", std::to_string(i), "", 0, 1);
    }
  }).join();
  auto snap = Tracer::snapshot();
  EXPECT_EQ(snap.events.size(), 8u);
  EXPECT_EQ(snap.dropped, 12u);
  std::set<std::string> kept;
  for (const auto& e : snap.events) kept.insert(e.detail);
  for (int i = 12; i < 20; ++i) {
    EXPECT_TRUE(kept.count(std::to_string(i))) << i;
  }
  EXPECT_EQ(Tracer::dropped_total(), 12u);
}

TEST_F(ObsTraceTest, SnapshotWindowFiltersOldEvents) {
  // An event that ended long ago (1 ns after process start) vs one ending
  // now; a 1 ms trailing window must keep only the recent one. The trace
  // clock counts from process start, so wait until the process is older
  // than twice the window: before that, "long ago" is inside the window.
  constexpr std::uint64_t kWindowNs = 1'000'000;
  while (now_ns() < 2 * kWindowNs) std::this_thread::yield();
  Tracer::emit("old", "test", "", "", 0, 1);
  const std::uint64_t now = now_ns();
  Tracer::emit("new", "test", "", "", now, 10);
  auto snap = Tracer::snapshot(kWindowNs);
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_STREQ(snap.events[0].name, "new");
}

TEST_F(ObsTraceTest, EventsSortedByStartAcrossThreads) {
  std::thread([] { Tracer::emit("b", "test", "", "", 200, 1); }).join();
  Tracer::emit("a", "test", "", "", 100, 1);
  Tracer::emit("c", "test", "", "", 300, 1);
  auto snap = Tracer::snapshot();
  ASSERT_EQ(snap.events.size(), 3u);
  EXPECT_STREQ(snap.events[0].name, "a");
  EXPECT_STREQ(snap.events[1].name, "b");
  EXPECT_STREQ(snap.events[2].name, "c");
}

TEST_F(ObsTraceTest, SetStageFeedsHistogramPerModel) {
  {
    TraceSpan span("forward", "test");
    span.set_stage("lenet");
  }
  {
    TraceSpan span("forward", "test");
    span.set_stage("lenet");
  }
  {
    TraceSpan span("decode", "test");
    span.set_stage("tiny");
  }
  auto stages = Tracer::stage_snapshot();
  ASSERT_EQ(stages.size(), 2u);  // sorted: (decode, tiny), (forward, lenet)
  EXPECT_EQ(stages[0].stage, "decode");
  EXPECT_EQ(stages[0].model, "tiny");
  EXPECT_EQ(stages[0].hist.count(), 1u);
  EXPECT_EQ(stages[1].stage, "forward");
  EXPECT_EQ(stages[1].model, "lenet");
  EXPECT_EQ(stages[1].hist.count(), 2u);
}

TEST_F(ObsTraceTest, RingsAreReusedAcrossThreadLifetimes) {
  // Many short-lived threads (the per-connection HTTP pattern) must not grow
  // one ring each: an exiting thread returns its ring to the free list. With
  // sequential threads every span should land on ONE reused ring id.
  std::set<std::uint32_t> tids;
  for (int i = 0; i < 16; ++i) {
    std::thread([] { Tracer::emit("t", "test", "", "", 0, 1); }).join();
  }
  for (const auto& e : Tracer::snapshot().events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 1u);
}

TEST_F(ObsTraceTest, ConcurrentWritersAndSnapshotsStayCoherent) {
  // Writers hammer their rings while readers snapshot continuously; every
  // returned event must be fully formed (seqlock validation discards torn
  // slots rather than returning garbage). Run under TSan in CI.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&stop, w] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        TraceSpan span("write", "test");
        span.set_detail("w" + std::to_string(w) + "-" + std::to_string(i++));
        span.set_phase("busy");
      }
    });
  }
  for (int s = 0; s < 50; ++s) {
    auto snap = Tracer::snapshot();
    for (const auto& e : snap.events) {
      ASSERT_STREQ(e.name, "write");
      ASSERT_STREQ(e.category, "test");
      ASSERT_STREQ(e.phase, "busy");
      ASSERT_EQ(e.detail[0], 'w');
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

TEST_F(ObsTraceTest, ChromeJsonRoundTrips) {
  {
    TraceSpan span("op\"quoted\"", "test");
    span.set_detail("layer\n1");
  }
  auto json = to_chrome_json(Tracer::snapshot());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("op\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("layer\\n1"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\":\"0\""), std::string::npos);
}

TEST_F(ObsTraceTest, ChromeJsonEmptySnapshot) {
  auto json = to_chrome_json(Tracer::snapshot());
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST_F(ObsTraceTest, EmitIsNoOpWhileDisabled) {
  Tracer::set_enabled(false);
  Tracer::emit("off", "test", "", "", 0, 1);
  Tracer::record_stage("off", "m", 1.0);
  Tracer::set_enabled(true);
  EXPECT_EQ(Tracer::snapshot().events.size(), 0u);
  // Only the ring is gated: stage histograms aggregate regardless.
  EXPECT_EQ(Tracer::stage_snapshot().size(), 1u);
}

TEST_F(ObsTraceTest, StageHistogramsFillWithTracingOff) {
  Tracer::set_enabled(false);
  {
    server::ModelRepository repo;
    repo.load("m", server::testing::tiny_container());
    server::RequestScheduler sched(repo);
    server::InferRequest req;
    req.rows = 1;
    req.input.assign(32, 0.5f);
    ASSERT_EQ(sched.infer("m", std::move(req)).status,
              server::InferStatus::kOk);
  }
  auto tiny = deepsz::testing::make_tiny_pruned(/*prune=*/false);
  compress::CompressSpec spec;
  spec.prune.keep_ratio = {{"fc1", 0.10}, {"fc2", 0.30}};
  spec.prune.retrain_epochs = 1;
  spec.expected_acc_loss = 0.02;
  compress::CompressionSession session(
      compress::CompressorRegistry::instance().make("deepsz"), tiny.net,
      tiny.train.images, tiny.train.labels, tiny.test.images,
      tiny.test.labels, spec);
  const auto report = session.run();
  for (const auto& stage : report.stages) {
    EXPECT_GT(stage.seconds, 0.0) << compress::stage_name(stage.stage);
  }

  std::set<std::string> stages;
  for (const auto& st : Tracer::stage_snapshot()) {
    if (st.hist.count() > 0) stages.insert(st.stage);
  }
  for (const char* stage :
       {"queue", "forward", "decode", "lossless", "eb_decode", "reconstruct",
        "prune", "assess", "optimize", "encode"}) {
    EXPECT_TRUE(stages.count(stage)) << stage;
  }
  EXPECT_TRUE(Tracer::snapshot().events.empty());  // nothing reached a ring
}

TEST(ObsTraceTime, NowIsMonotonicNonDecreasing) {
  const auto a = now_ns();
  const auto b = now_ns();
  EXPECT_GE(b, a);
  EXPECT_GE(to_trace_ns(std::chrono::steady_clock::now()), a);
}

}  // namespace
}  // namespace deepsz::obs
