// Closed-loop load generator for the serving subsystem.
//
// N client threads each keep exactly one request in flight against a
// two-model repository (closed loop), first with micro-batching disabled
// (max_batch=1) and then enabled — the headline number is the batched/
// unbatched QPS ratio, the serving-side analogue of the paper's batched
// forward passes. Latency tails are each client's submit-to-result time in
// its own util::Histogram, which includes the client's wake-up; they are not
// the server-side `request` stage that `GET /metrics` reports.
//
//   bench_server_throughput [model.dszc] [clients=16] [requests-per-client=400]
//                           [max-batch=16]
//
// With no container argument a tiny 3-layer model is synthesized in memory.
//
// The run ends with the tracing-overhead gate: the batched configuration is
// re-run with span recording disabled and enabled (seven interleaved pairs
// of at least 2000 requests per client, median p50 per mode, printed next to
// the off-vs-off noise floor), and the process exits nonzero if enabled p50
// exceeds disabled p50 by more than 3% — the obs/ subsystem's "low-overhead"
// claim, enforced.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "obs/trace.h"
#include "server/model_repository.h"
#include "server/scheduler.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace deepsz;

// LeNet-300-100-shaped (the paper's smallest network): the forward pass —
// not scheduler bookkeeping — dominates a request, so batching has
// something real to amortize.
std::vector<std::uint8_t> synthesize_container(std::uint64_t seed) {
  std::vector<sparse::PrunedLayer> layers;
  layers.push_back(
      data::synthesize_pruned_layer("fc1", 300, 784, 0.15, seed));
  layers.push_back(
      data::synthesize_pruned_layer("fc2", 100, 300, 0.15, seed + 1));
  layers.push_back(
      data::synthesize_pruned_layer("fc3", 10, 100, 0.2, seed + 2));
  return core::encode_model(layers, {}, core::ContainerOptions{}).bytes;
}

struct RunStats {
  double seconds = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  util::Histogram latency_ms = util::Histogram::exponential(0.001, 1.5, 48);
  util::Histogram batch_rows = util::Histogram::exponential(1.0, 2.0, 11);

  double qps() const { return seconds > 0 ? ok / seconds : 0.0; }
};

/// Closed loop: `clients` threads, one in-flight request each, round-robin
/// across the loaded models.
RunStats run_closed_loop(server::ModelRepository& repo,
                         const std::vector<std::string>& models,
                         std::int64_t in_features,
                         const server::SchedulerOptions& opts, int clients,
                         int requests_per_client) {
  server::ServerMetrics metrics;
  server::RequestScheduler sched(repo, opts, &metrics);

  // Warm every model once so the measured loop is steady-state serving,
  // not container decoding.
  for (const auto& m : models) {
    server::InferRequest warm;
    warm.rows = 1;
    warm.input.assign(static_cast<std::size_t>(in_features), 0.1f);
    auto r = sched.infer(m, std::move(warm));
    if (!r.ok()) {
      std::fprintf(stderr, "warmup failed for %s: %s\n", m.c_str(),
                   r.error.c_str());
      std::exit(1);
    }
  }

  RunStats stats;
  std::vector<util::Histogram> per_thread(
      static_cast<std::size_t>(clients),
      util::Histogram::exponential(0.001, 1.5, 48));
  std::vector<std::uint64_t> ok(static_cast<std::size_t>(clients), 0);
  std::vector<std::uint64_t> failed(static_cast<std::size_t>(clients), 0);

  const std::uint64_t start_ns = obs::now_ns();
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      // Inputs pre-generated outside the timed loop: the generator should
      // load the server, not spend its cycles on RNG.
      util::Pcg32 rng(0x5eed + static_cast<std::uint64_t>(t));
      std::vector<std::vector<float>> inputs(8);
      for (auto& input : inputs) {
        input.resize(static_cast<std::size_t>(in_features));
        for (auto& v : input) v = static_cast<float>(rng.normal(0.0, 1.0));
      }
      // Closed loop with a small pipeline: each client keeps kWindow
      // requests in flight and blocks on the oldest. Real serving clients
      // pipeline over keep-alive connections the same way; a window of 1
      // would measure the client's own wakeup latency as much as the
      // server.
      constexpr int kWindow = 2;
      struct InFlight {
        std::future<server::InferResult> future;
        std::uint64_t submitted_ns;
      };
      std::deque<InFlight> window;
      auto submit_one = [&](int i) {
        server::InferRequest req;
        req.rows = 1;
        req.input = inputs[static_cast<std::size_t>(i) % inputs.size()];
        const auto& model = models[static_cast<std::size_t>(i) % models.size()];
        window.push_back(
            InFlight{sched.submit(model, std::move(req)), obs::now_ns()});
      };
      auto harvest_one = [&] {
        auto r = window.front().future.get();
        const double ms =
            static_cast<double>(obs::now_ns() - window.front().submitted_ns) /
            1e6;
        window.pop_front();
        if (r.ok()) {
          ++ok[static_cast<std::size_t>(t)];
          per_thread[static_cast<std::size_t>(t)].record(ms);
        } else {
          ++failed[static_cast<std::size_t>(t)];
        }
      };
      for (int i = 0; i < requests_per_client; ++i) {
        if (static_cast<int>(window.size()) == kWindow) harvest_one();
        submit_one(i);
      }
      while (!window.empty()) harvest_one();
    });
  }
  for (auto& th : threads) th.join();
  stats.seconds = static_cast<double>(obs::now_ns() - start_ns) / 1e9;

  for (int t = 0; t < clients; ++t) {
    stats.latency_ms.merge(per_thread[static_cast<std::size_t>(t)]);
    stats.ok += ok[static_cast<std::size_t>(t)];
    stats.failed += failed[static_cast<std::size_t>(t)];
  }
  stats.batch_rows = metrics.snapshot().batch_rows_hist;
  return stats;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void print_run(const char* label, const RunStats& s) {
  std::printf("%-14s %8.0f req/s   p50 %6.3f ms   p95 %6.3f ms   p99 %6.3f "
              "ms   mean batch %.2f rows\n",
              label, s.qps(), s.latency_ms.quantile(0.50),
              s.latency_ms.quantile(0.95), s.latency_ms.quantile(0.99),
              s.batch_rows.mean());
  if (s.failed > 0) {
    std::printf("%-14s %llu request(s) FAILED\n", "",
                static_cast<unsigned long long>(s.failed));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string container_path = argc > 1 ? argv[1] : "";
  const int clients = argc > 2 ? std::atoi(argv[2]) : 16;
  const int requests = argc > 3 ? std::atoi(argv[3]) : 400;
  const std::int64_t max_batch = argc > 4 ? std::atoll(argv[4]) : 16;
  if (clients < 1 || requests < 1 || max_batch < 1) {
    std::fprintf(stderr,
                 "usage: bench_server_throughput [model.dszc] [clients=16] "
                 "[requests-per-client=400] [max-batch=16]\n");
    return 2;
  }

  server::ModelRepository repo(64ull << 20);
  std::vector<std::string> models = {"a", "b"};
  if (container_path.empty()) {
    repo.load("a", synthesize_container(21));
    repo.load("b", synthesize_container(45));
  } else {
    repo.load_file("a", container_path);
    repo.load_file("b", container_path);
  }
  const auto in_features = repo.get("a")->in_features;

  std::printf("server throughput: %d closed-loop client(s) x %d request(s), "
              "2 models, %lld features\n",
              clients, requests, static_cast<long long>(in_features));

  // One worker per model in both configurations: batching takes whatever
  // the closed-loop clients have queued, so the coalescing itself — not
  // extra threads — is the only variable between the two runs.
  server::SchedulerOptions unbatched;
  unbatched.max_batch = 1;
  unbatched.workers_per_model = 1;
  unbatched.queue_capacity = 4096;
  auto base = run_closed_loop(repo, models, in_features, unbatched, clients,
                              requests);
  print_run("max_batch=1", base);

  server::SchedulerOptions batched = unbatched;
  batched.max_batch = max_batch;
  auto fast = run_closed_loop(repo, models, in_features, batched, clients,
                              requests);
  print_run(("max_batch=" + std::to_string(max_batch)).c_str(), fast);

  const double speedup = base.qps() > 0 ? fast.qps() / base.qps() : 0.0;
  std::printf("batched speedup: %.2fx\n", speedup);

  // Tracing-overhead gate: kTrials interleaved off/on pairs, compared by
  // their median p50, so one trial hit by a scheduler hiccup moves neither
  // side. Next to the on-vs-off difference the gate prints the noise floor,
  // the median change between consecutive off trials: the same
  // configuration measured twice differs by about that much, so an on-vs-off
  // difference below it is noise, not tracing cost. Each trial runs at least
  // 2000 requests per client: 400-request trials (~30 ms) had noise floors
  // of 4-15%, above the bound the gate enforces.
  constexpr int kTrials = 7;
  constexpr double kMaxRegression = 1.03;
  const int gate_requests = std::max(requests, 2000);
  std::vector<double> p50_off, p50_on;
  for (int trial = 0; trial < kTrials; ++trial) {
    obs::Tracer::set_enabled(false);
    p50_off.push_back(run_closed_loop(repo, models, in_features, batched,
                                      clients, gate_requests)
                          .latency_ms.quantile(0.50));
    obs::Tracer::set_enabled(true);
    p50_on.push_back(run_closed_loop(repo, models, in_features, batched,
                                     clients, gate_requests)
                         .latency_ms.quantile(0.50));
  }
  obs::Tracer::set_enabled(false);
  std::vector<double> off_vs_off;
  for (int t = 1; t < kTrials; ++t) {
    off_vs_off.push_back(std::abs(p50_off[t] / p50_off[t - 1] - 1.0) * 100.0);
  }
  const double off = median(p50_off);
  const double on = median(p50_on);
  const bool gate_ok = on <= off * kMaxRegression;
  std::printf("tracing gate:  median p50 of %d trials off %.3f ms, on %.3f ms "
              "(%+.1f%%, noise floor %.1f%%) -> %s\n",
              kTrials, off, on, off > 0 ? (on / off - 1.0) * 100.0 : 0.0,
              median(off_vs_off), gate_ok ? "PASS" : "FAIL (limit +3%)");

  const auto cache = repo.get("a")->store->stats();
  std::printf("model a cache: %llu hit(s), %llu miss(es), %llu coalesced, "
              "%llu eviction(s), resident %.1f KB\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.coalesced),
              static_cast<unsigned long long>(cache.evictions),
              static_cast<double>(cache.cached_bytes) / 1024.0);
  return gate_ok ? 0 : 1;
}
