// Concurrency stress: 8 threads hammer one repository through the scheduler
// while hot-swap reloads run — no request may be dropped, corrupted, or
// answered with the wrong shape. Run under the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "server/scheduler.h"
#include "server/server.h"
#include "tests/server/test_containers.h"

namespace deepsz::server {
namespace {

using testing::tiny_container;

TEST(ServerStress, EightThreadsVsHotSwapReload) {
  ModelRepository repo(1 << 20);
  repo.load("m", tiny_container(1));
  repo.load("other", tiny_container(2));  // cross-model budget pressure
  SchedulerOptions opts;
  opts.max_batch = 8;
  opts.queue_capacity = 1024;  // large: this test measures safety, not shed
  opts.workers_per_model = 2;
  ServerMetrics metrics;
  RequestScheduler sched(repo, opts, &metrics);

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 150;
  std::atomic<std::uint64_t> ok{0}, not_found{0}, other_status{0};
  std::atomic<std::uint64_t> bad_payload{0};

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        InferRequest req;
        req.rows = 1 + (i % 3);
        req.input.assign(static_cast<std::size_t>(req.rows) * 32,
                         0.01f * static_cast<float>(t + i));
        const char* model = (i % 4 == 0) ? "other" : "m";
        auto r = sched.infer(model, std::move(req));
        if (r.status == InferStatus::kOk) {
          ok.fetch_add(1);
          if (r.cols != 16 ||
              r.output.size() !=
                  static_cast<std::size_t>(r.rows) * 16) {
            bad_payload.fetch_add(1);
          }
        } else if (r.status == InferStatus::kNotFound) {
          not_found.fetch_add(1);  // raced an unload window; legal
        } else {
          other_status.fetch_add(1);
        }
      }
    });
  }

  // Hot-swap churn while the clients run: reload (same shape, new weights),
  // plus one unload/load gap to exercise the kNotFound path.
  std::thread swapper([&] {
    for (int round = 0; round < 20; ++round) {
      repo.load("m", tiny_container(static_cast<std::uint64_t>(round + 10)));
      if (round == 10) {
        repo.unload("m");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        repo.load("m", tiny_container(99));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (auto& c : clients) c.join();
  swapper.join();

  // Every request completed with a sane terminal status...
  EXPECT_EQ(ok + not_found + other_status,
            static_cast<std::uint64_t>(kThreads) * kRequestsPerThread);
  EXPECT_EQ(other_status, 0u);
  EXPECT_EQ(bad_payload, 0u);
  EXPECT_GT(ok, 0u);
  // ...metrics agree, and the shared budget held under churn.
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.ok, ok);
  EXPECT_LE(repo.budget()->used_bytes(), repo.budget()->budget_bytes());
}

TEST(ServerStress, CodebookModelVsHotSwapReload) {
  // The compressed-domain variant of the hot-swap race: a "dc" container is
  // served as codebook-CSR (the repository's stores run native_form), so
  // every batch runs the codebook-gather kernel while the swapper replaces
  // the model underneath. Shapes and statuses must stay sane and every
  // logit finite — a stale codebook or id array would show up as garbage.
  ModelRepository repo(1 << 20);
  repo.load("dc", testing::tiny_dc_container(1));
  SchedulerOptions opts;
  opts.max_batch = 8;
  opts.queue_capacity = 1024;
  opts.workers_per_model = 2;
  ServerMetrics metrics;
  RequestScheduler sched(repo, opts, &metrics);

  constexpr int kThreads = 6;
  constexpr int kRequestsPerThread = 120;
  std::atomic<std::uint64_t> ok{0}, not_found{0}, other_status{0};
  std::atomic<std::uint64_t> bad_payload{0};

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        InferRequest req;
        req.rows = 1 + (i % 3);
        req.input.assign(static_cast<std::size_t>(req.rows) * 32,
                         0.01f * static_cast<float>(t + i));
        auto r = sched.infer("dc", std::move(req));
        if (r.status == InferStatus::kOk) {
          ok.fetch_add(1);
          bool sane = r.cols == 16 &&
                      r.output.size() ==
                          static_cast<std::size_t>(r.rows) * 16;
          for (float v : r.output) {
            if (!std::isfinite(v)) sane = false;
          }
          if (!sane) bad_payload.fetch_add(1);
        } else if (r.status == InferStatus::kNotFound) {
          not_found.fetch_add(1);  // raced an unload window; legal
        } else {
          other_status.fetch_add(1);
        }
      }
    });
  }

  std::thread swapper([&] {
    for (int round = 0; round < 16; ++round) {
      repo.load("dc",
                testing::tiny_dc_container(
                    static_cast<std::uint64_t>(round + 10)));
      if (round == 8) {
        repo.unload("dc");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        repo.load("dc", testing::tiny_dc_container(77));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (auto& c : clients) c.join();
  swapper.join();

  EXPECT_EQ(ok + not_found + other_status,
            static_cast<std::uint64_t>(kThreads) * kRequestsPerThread);
  EXPECT_EQ(other_status, 0u);
  EXPECT_EQ(bad_payload, 0u);
  EXPECT_GT(ok, 0u);
  // The repository's stores really served compressed-domain: all resident
  // bytes of the surviving model sit in the codebook-CSR form bucket.
  const auto stats = repo.get("dc")->store->stats();
  EXPECT_EQ(stats.form_resident(serve::ServingForm::kDenseF32), 0u);
  EXPECT_EQ(stats.form_resident(serve::ServingForm::kSparseCsr), 0u);
}

TEST(ServerStress, ColdStartThunderingHerd) {
  // Many threads hit a cold model at once: the store's in-flight coalescing
  // must produce exactly one decode per layer and identical outputs.
  ModelRepository repo;
  repo.load("m", tiny_container(5));
  SchedulerOptions opts;
  opts.workers_per_model = 4;
  RequestScheduler sched(repo, opts);

  std::vector<std::future<InferResult>> futures;
  for (int i = 0; i < 32; ++i) {
    InferRequest req;
    req.rows = 1;
    req.input.assign(32, 0.5f);
    futures.push_back(sched.submit("m", std::move(req)));
  }
  std::vector<float> first;
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_EQ(r.status, InferStatus::kOk);
    if (first.empty()) {
      first = r.output;
      continue;
    }
    // Identical inputs -> identical logits up to fp tolerance: requests land
    // in different batch sizes, and the sparse batched path sums in a
    // different order than the small-batch dense path.
    ASSERT_EQ(r.output.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_NEAR(r.output[i], first[i], 1e-4) << "logit " << i;
    }
  }
  const auto stats = repo.get("m")->store->stats();
  EXPECT_EQ(stats.misses, 2u) << "each layer must decode exactly once";
}

}  // namespace
}  // namespace deepsz::server
