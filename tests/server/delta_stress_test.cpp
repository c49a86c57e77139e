// Delta hot-swap under fire: 8 client threads hammer one model through the
// scheduler while a swapper rolls it base -> delta -> delta-on-delta (via
// explicit hint AND crc auto-detect) and, mid-swap, unloads the base the
// chain hangs off. No request may crash, corrupt, or return non-finite
// logits; the delta snapshots must keep serving after their base model is
// gone from the repository. Runs under the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/delta_codec.h"
#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "server/scheduler.h"
#include "server/server.h"
#include "tests/server/test_containers.h"
#include "util/rng.h"

namespace deepsz::server {
namespace {

using testing::tiny_container;

// The tiny_container stack (32 -> 24 -> 16) with every weight nudged: a
// fine-tuned successor sharing the base's sparsity pattern.
std::vector<std::uint8_t> nudged_successor(std::uint64_t seed, double scale) {
  const std::vector<std::int64_t> dims = {32, 24, 16};
  std::vector<sparse::PrunedLayer> layers;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers.push_back(data::synthesize_pruned_layer(
        "fc" + std::to_string(i + 1), dims[i + 1], dims[i], 0.2, seed + i));
  }
  util::Pcg32 rng(seed ^ 0xfeed);
  for (auto& l : layers) {
    for (auto& v : l.data) v += static_cast<float>(rng.normal(0.0, scale));
  }
  return core::encode_model(layers, {}, core::ContainerOptions{}).bytes;
}

TEST(DeltaStress, EightThreadsVsDeltaRolloutChain) {
  // All containers are prepared up front so the swapper loop is just
  // repository calls. delta2 is diffed against the RESOLVED delta1 chain, so
  // its base_crc names the delta1 container — a genuine two-hop rollout.
  const auto base_bytes = tiny_container(7);
  const auto succ1 = nudged_successor(7, 1e-3);
  const auto succ2 = nudged_successor(7, 2e-3);
  core::DeltaOptions dopts;
  dopts.base_id = "prod-base";
  const auto delta1 =
      core::encode_delta_model(base_bytes, succ1, dopts).bytes;
  auto reader1 = std::make_shared<core::ContainerReader>(delta1);
  reader1->set_base(std::make_shared<core::ContainerReader>(base_bytes));
  dopts.base_id = "prod";
  const auto delta2 = core::encode_delta_model(*reader1, succ2, dopts).bytes;

  ModelRepository repo(1 << 20);
  repo.load("prod-base", base_bytes);
  repo.load("prod", base_bytes);
  SchedulerOptions opts;
  opts.max_batch = 8;
  opts.queue_capacity = 1024;
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
        auto r = sched.infer("prod", std::move(req));
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

  // The rollout loop. Each round: back to the full base, then hop 1 via crc
  // auto-detect against "prod-base", then hop 2 via an explicit hint naming
  // the delta we just made live. Mid-run the base model is unloaded while
  // deltas chained off it are still serving (their snapshots keep the base
  // store alive), and "prod" itself gets one unload/load gap.
  std::thread swapper([&] {
    for (int round = 0; round < 16; ++round) {
      repo.load("prod", base_bytes);
      repo.load("prod", delta1);           // auto-detect -> "prod-base"
      repo.load("prod", delta2, "", "prod");  // hint -> the delta1 model
      if (round == 8) {
        repo.unload("prod-base");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        repo.unload("prod");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        repo.load("prod-base", base_bytes);
        repo.load("prod", base_bytes);
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
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.ok, ok);
  EXPECT_LE(repo.budget()->used_bytes(), repo.budget()->budget_bytes());

  // The final live model is the two-hop delta; it must still answer, and
  // the shipped-bytes counter must reflect delta-sized payloads.
  auto final_model = repo.get("prod");
  ASSERT_NE(final_model, nullptr);
  EXPECT_EQ(final_model->base_ref, "prod");
  EXPECT_GT(repo.bytes_shipped(), 0u);
  InferRequest req;
  req.rows = 2;
  req.input.assign(64, 0.25f);
  auto r = sched.infer("prod", std::move(req));
  ASSERT_EQ(r.status, InferStatus::kOk);
  for (float v : r.output) EXPECT_TRUE(std::isfinite(v));
}

TEST(DeltaStress, UnloadRaceNeverStrandsADeltaChain) {
  // Tighter interleaving on the repository itself (no scheduler): one
  // thread flips prod between full and delta while another unloads/reloads
  // the base, and readers snapshot + touch layers. Exercises the
  // shared_ptr aliasing that keeps a base store alive past its unload.
  const auto base_bytes = tiny_container(3);
  const auto succ = nudged_successor(3, 1e-3);
  core::DeltaOptions dopts;
  dopts.base_id = "b";
  const auto delta = core::encode_delta_model(base_bytes, succ, dopts).bytes;

  ModelRepository repo;
  repo.load("b", base_bytes);
  repo.load("prod", base_bytes);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> touched{0}, skipped{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto m = repo.get("prod");
        if (!m) {
          skipped.fetch_add(1);
          continue;
        }
        auto fc1 = m->store->get("fc1");  // may decode through the chain
        if (fc1 && !fc1->dense.empty() && std::isfinite(fc1->dense[0])) {
          touched.fetch_add(1);
        }
      }
    });
  }
  std::thread flipper([&] {
    for (int i = 0; i < 200; ++i) {
      try {
        repo.load("prod", i % 2 ? delta : base_bytes);
      } catch (const std::runtime_error&) {
        // The base model can be mid-unload: no loaded model and no file on
        // disk to fall back to. A clean error is the required behavior.
      }
    }
  });
  std::thread base_churn([&] {
    for (int i = 0; i < 100; ++i) {
      repo.unload("b");
      repo.load("b", base_bytes);
    }
  });
  flipper.join();
  base_churn.join();
  stop.store(true);
  for (auto& r : readers) r.join();

  EXPECT_GT(touched, 0u);
  auto m = repo.get("prod");
  ASSERT_NE(m, nullptr);
  auto fc1 = m->store->get("fc1");
  ASSERT_NE(fc1, nullptr);
  EXPECT_TRUE(std::isfinite(fc1->dense[0]));
}

}  // namespace
}  // namespace deepsz::server
