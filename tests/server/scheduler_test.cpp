// RequestScheduler: micro-batch coalescing, admission control, deadlines,
// hot-swap safety, and output correctness against a direct session.
#include "server/scheduler.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "codec/registry.h"
#include "serve/inference_session.h"
#include "server/metrics.h"
#include "tests/server/test_containers.h"

namespace deepsz::server {
namespace {

using testing::tiny_container;

InferRequest rows_of(std::int64_t rows, std::int64_t features,
                     float fill = 0.5f) {
  InferRequest r;
  r.rows = rows;
  r.input.assign(static_cast<std::size_t>(rows * features), fill);
  return r;
}

InferRequest one_row(std::int64_t features, float fill = 0.5f) {
  return rows_of(1, features, fill);
}

/// Identity byte codec whose decode parks while the gate is armed. A test
/// arms the gate, submits a request whose cold decode then holds the only
/// worker, queues more requests behind it, and opens the gate: what the
/// worker takes next is exactly what queued, with no timing window.
class GatedCodec : public codec::ByteCodec {
 public:
  static void arm() {
    std::lock_guard<std::mutex> lock(gate().mu);
    gate().armed = true;
  }
  /// Waits until a decode is parked on the armed gate.
  static bool wait_parked() {
    Gate& g = gate();
    std::unique_lock<std::mutex> lock(g.mu);
    return g.cv.wait_for(lock, std::chrono::seconds(30),
                         [&] { return g.parked > 0; });
  }
  static void open() {
    {
      std::lock_guard<std::mutex> lock(gate().mu);
      gate().armed = false;
    }
    gate().cv.notify_all();
  }

  std::string name() const override { return "gated-sched"; }
  std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> data) const override {
    std::vector<std::uint8_t> out;
    out.reserve(data.size() + 1);
    out.push_back(0xCF);
    out.insert(out.end(), data.begin(), data.end());
    return out;
  }
  std::vector<std::uint8_t> decode(
      std::span<const std::uint8_t> frame) const override {
    if (frame.empty() || frame[0] != 0xCF) {
      throw std::runtime_error("gated-sched: bad frame");
    }
    {
      Gate& g = gate();
      std::unique_lock<std::mutex> lock(g.mu);
      ++g.parked;
      g.cv.notify_all();
      g.cv.wait(lock, [&] { return !g.armed; });
      --g.parked;
    }
    return std::vector<std::uint8_t>(frame.begin() + 1, frame.end());
  }

 private:
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool armed = false;  // guarded by mu
    int parked = 0;      // decodes waiting on the gate; guarded by mu
  };
  static Gate& gate() {
    static Gate g;
    return g;
  }
};

/// The stock tiny stack (32 -> 24 -> 16) with GatedCodec index streams.
std::vector<std::uint8_t> gated_container() {
  auto& reg = codec::CodecRegistry::instance();
  if (!reg.has_byte("gated-sched")) {
    codec::CodecInfo info;
    info.name = "gated-sched";
    info.summary = "identity codec whose decode waits on a gate (tests)";
    reg.register_byte(info, [](const codec::Options& opts) {
      opts.check_known({});
      return std::make_shared<GatedCodec>();
    });
  }
  std::vector<sparse::PrunedLayer> layers;
  layers.push_back(data::synthesize_pruned_layer("fc1", 24, 32, 0.2, 7));
  layers.push_back(data::synthesize_pruned_layer("fc2", 16, 24, 0.2, 8));
  core::ContainerOptions copts;
  copts.index_codec = "gated-sched";
  return core::encode_model(layers, {}, copts).bytes;
}

/// Submits `first` to a one-worker scheduler and waits until its batch is
/// parked in the cold decode, so every later submit queues behind it until
/// GatedCodec::open().
std::future<InferResult> park_worker(RequestScheduler& sched,
                                     InferRequest first) {
  GatedCodec::arm();
  auto f = sched.submit("m", std::move(first));
  EXPECT_TRUE(GatedCodec::wait_parked()) << "first batch never decoded";
  return f;
}

TEST(RequestScheduler, RejectsBadOptions) {
  ModelRepository repo;
  SchedulerOptions bad;
  bad.max_batch = 0;
  EXPECT_THROW(RequestScheduler(repo, bad), std::invalid_argument);
  bad = SchedulerOptions{};
  bad.workers_per_model = 0;
  EXPECT_THROW(RequestScheduler(repo, bad), std::invalid_argument);
}

TEST(RequestScheduler, UnknownModelAndBadShapeFailFast) {
  ModelRepository repo;
  repo.load("m", tiny_container());
  RequestScheduler sched(repo);

  auto r1 = sched.infer("nope", one_row(32));
  EXPECT_EQ(r1.status, InferStatus::kNotFound);
  EXPECT_FALSE(r1.error.empty());

  auto r2 = sched.infer("m", one_row(31));
  EXPECT_EQ(r2.status, InferStatus::kInvalidInput);

  InferRequest zero_rows;
  zero_rows.rows = 0;
  auto r3 = sched.infer("m", std::move(zero_rows));
  EXPECT_EQ(r3.status, InferStatus::kInvalidInput);
}

TEST(RequestScheduler, MatchesDirectSessionOutput) {
  auto bytes = tiny_container(11);
  ModelRepository repo;
  auto m = repo.load("m", bytes);

  // Oracle: a private session over the same container.
  serve::ModelStore store(bytes);
  nn::Network net = serve::make_fc_network(store.reader());
  serve::InferenceSession session(store, net);
  nn::Tensor x({1, 32});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = 0.01f * static_cast<float>(i);
  }
  auto expected = session.infer(x);

  RequestScheduler sched(repo);
  InferRequest req;
  req.rows = 1;
  req.input.assign(x.data(), x.data() + x.numel());
  auto got = sched.infer("m", std::move(req));

  ASSERT_EQ(got.status, InferStatus::kOk);
  ASSERT_EQ(got.rows, 1);
  ASSERT_EQ(got.cols, expected.dim(1));
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    EXPECT_FLOAT_EQ(got.output[static_cast<std::size_t>(i)], expected[i]);
  }
}

TEST(RequestScheduler, MultiRowRequestRoundTrips) {
  ModelRepository repo;
  auto m = repo.load("m", tiny_container());
  RequestScheduler sched(repo);

  InferRequest req;
  req.rows = 5;
  req.input.assign(5 * 32, 0.125f);
  auto r = sched.infer("m", std::move(req));
  ASSERT_EQ(r.status, InferStatus::kOk);
  EXPECT_EQ(r.rows, 5);
  EXPECT_EQ(r.cols, m->out_features);
  EXPECT_EQ(r.output.size(), static_cast<std::size_t>(5 * m->out_features));
  // Identical rows in, identical logits out.
  for (std::size_t row = 1; row < 5; ++row) {
    for (std::int64_t c = 0; c < r.cols; ++c) {
      EXPECT_FLOAT_EQ(r.output[row * r.cols + c], r.output[c]);
    }
  }
}

TEST(RequestScheduler, CoalescesConcurrentRequestsIntoBatches) {
  // Eight one-row requests queue while the only worker is busy with the
  // first; once it frees up it takes all eight into one batch at once.
  ModelRepository repo;
  repo.load("m", gated_container());
  SchedulerOptions opts;
  opts.max_batch = 8;
  opts.workers_per_model = 1;
  ServerMetrics metrics;
  RequestScheduler sched(repo, opts, &metrics);

  auto first = park_worker(sched, one_row(32));
  std::vector<std::future<InferResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(sched.submit("m", one_row(32)));
  }
  GatedCodec::open();

  EXPECT_EQ(first.get().batch_rows, 1);
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_EQ(r.status, InferStatus::kOk);
    EXPECT_EQ(r.batch_rows, 8);
  }
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.ok, 9u);
  EXPECT_EQ(snap.batches, 2u);
  EXPECT_EQ(snap.batched_rows, 9u);
}

TEST(RequestScheduler, ShedsWhenQueueFull) {
  ModelRepository repo;
  repo.load("m", tiny_container());
  SchedulerOptions opts;
  opts.max_batch = 1;
  opts.queue_capacity = 2;
  opts.workers_per_model = 1;
  ServerMetrics metrics;
  RequestScheduler sched(repo, opts, &metrics);

  // Flood from many threads; with capacity 2 and batch 1, a burst of 64
  // one-row requests must shed at least once and never deadlock.
  std::vector<std::future<InferResult>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(sched.submit("m", one_row(32)));
  std::uint64_t ok = 0, shed = 0;
  for (auto& f : futures) {
    auto r = f.get();
    if (r.status == InferStatus::kOk) ++ok;
    else if (r.status == InferStatus::kOverloaded) ++shed;
    else FAIL() << "unexpected status " << status_name(r.status);
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(metrics.snapshot().shed, shed);
}

TEST(RequestScheduler, ExpiredDeadlineShortCircuits) {
  ModelRepository repo;
  repo.load("m", tiny_container());
  RequestScheduler sched(repo);

  auto req = one_row(32);
  req.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(1);  // already expired
  auto r = sched.infer("m", std::move(req));
  EXPECT_EQ(r.status, InferStatus::kDeadlineExceeded);

  auto req2 = one_row(32);
  req2.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  EXPECT_EQ(sched.infer("m", std::move(req2)).status, InferStatus::kOk);
}

TEST(RequestScheduler, HotSwapBetweenRequestsPicksUpNewVersion) {
  ModelRepository repo;
  repo.load("m", tiny_container(1));
  RequestScheduler sched(repo);

  auto r1 = sched.infer("m", one_row(32));
  ASSERT_EQ(r1.status, InferStatus::kOk);

  repo.load("m", tiny_container(2));  // hot swap, different weights
  auto r2 = sched.infer("m", one_row(32));
  ASSERT_EQ(r2.status, InferStatus::kOk);
  EXPECT_NE(r1.output, r2.output) << "worker kept serving the old version";

  repo.unload("m");
  EXPECT_EQ(sched.infer("m", one_row(32)).status, InferStatus::kNotFound);
}

TEST(RequestScheduler, HotSwapToDifferentShapeInvalidatesQueued) {
  // A swap that changes input width between admission and execution must
  // surface as kInvalidInput, never as a crash or a silent wrong answer.
  ModelRepository repo;
  repo.load("m", tiny_container());
  RequestScheduler sched(repo);
  repo.load("m", testing::make_container({8, 4}));
  auto r = sched.infer("m", one_row(32));
  EXPECT_EQ(r.status, InferStatus::kInvalidInput);
}

TEST(RequestScheduler, ShutdownDrainsAndRejectsNewWork) {
  ModelRepository repo;
  repo.load("m", tiny_container());
  auto sched = std::make_unique<RequestScheduler>(repo);

  std::vector<std::future<InferResult>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(sched->submit("m", one_row(32)));
  }
  sched->shutdown();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, InferStatus::kOk) << "shutdown dropped work";
  }
  EXPECT_EQ(sched->infer("m", one_row(32)).status,
            InferStatus::kShuttingDown);
  sched.reset();  // double-shutdown via destructor is fine
}

TEST(RequestScheduler, ForgetTearsDownAndRecreatesQueues) {
  ModelRepository repo;
  repo.load("m", tiny_container());
  RequestScheduler sched(repo);

  EXPECT_EQ(sched.infer("m", one_row(32)).status, InferStatus::kOk);
  sched.forget("m");           // workers joined, queue gone
  sched.forget("m");           // idempotent
  sched.forget("never-seen");  // unknown names are a no-op

  // The model is still loaded: the next request recreates the queue.
  EXPECT_EQ(sched.infer("m", one_row(32)).status, InferStatus::kOk);

  // unload + forget: queued work for the name completes kNotFound, and a
  // fresh submit fails fast.
  repo.unload("m");
  sched.forget("m");
  EXPECT_EQ(sched.infer("m", one_row(32)).status, InferStatus::kNotFound);
}

TEST(RequestScheduler, MultiRowGatherFillsByRows) {
  // Five 4-row requests queued behind a busy worker, max_batch=16: the
  // gather counts rows, not requests, so the first four fill one 16-row
  // batch and the fifth, which no longer fits, runs in the next.
  ModelRepository repo;
  repo.load("m", gated_container());
  SchedulerOptions opts;
  opts.max_batch = 16;
  opts.workers_per_model = 1;
  ServerMetrics metrics;
  RequestScheduler sched(repo, opts, &metrics);

  auto first = park_worker(sched, one_row(32));
  std::vector<std::future<InferResult>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(sched.submit("m", rows_of(4, 32)));
  }
  GatedCodec::open();

  EXPECT_EQ(first.get().status, InferStatus::kOk);
  for (int i = 0; i < 5; ++i) {
    auto r = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, InferStatus::kOk);
    EXPECT_EQ(r.rows, 4);
    EXPECT_EQ(r.batch_rows, i < 4 ? 16 : 4) << "request " << i;
  }
  EXPECT_EQ(metrics.snapshot().batches, 3u);
}

TEST(RequestScheduler, QueueDepthReporting) {
  ModelRepository repo;
  repo.load("m", tiny_container());
  RequestScheduler sched(repo);
  EXPECT_EQ(sched.queue_depth("m"), 0u);
  EXPECT_EQ(sched.queue_depth("ghost"), 0u);
  sched.infer("m", one_row(32));
  EXPECT_EQ(sched.queue_depth("m"), 0u);  // drained
}

}  // namespace
}  // namespace deepsz::server
