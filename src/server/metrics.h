// Serving-side observability: lock-cheap counters plus fixed-bucket
// histograms, snapshotable at any time.
//
// Counters are relaxed atomics (one fetch_add per event); the two histograms
// share one mutex that is held only for the O(log #buckets) record. The
// /metrics endpoint and bench_server_throughput read a consistent-enough
// Snapshot without stopping the world.
#pragma once

#include <atomic>
#include <cstdint>

#include "server/request.h"
#include "util/mutex.h"
#include "util/stats.h"

namespace deepsz::server {

class ServerMetrics {
 public:
  ServerMetrics();

  /// One terminal request outcome; `latency_ms` is admission-to-completion
  /// (recorded into the latency histogram for kOk only, so shed requests do
  /// not fake a fast tail). `queue_ms` >= 0 is the admission-to-batch wait:
  /// it feeds the ok queue-wait histogram for kOk and the rejected one for
  /// shed / deadline-expired outcomes — without the rejected histogram,
  /// load-shedding tuning only ever sees the survivors' waits.
  void record_result(InferStatus status, double latency_ms,
                     double queue_ms = -1.0);

  /// One batched forward pass of `rows` coalesced rows. `forward_ms` also
  /// feeds the execute-time histogram (the other half of the
  /// queue-wait-vs-execute split).
  void record_batch(std::int64_t rows, double forward_ms);

  /// Queue depth gauge, maintained by the scheduler.
  void on_enqueue() { queue_depth_.fetch_add(1, std::memory_order_relaxed); }
  void on_dequeue(std::int64_t n = 1) {
    queue_depth_.fetch_sub(n, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::uint64_t requests = 0;  // every terminal outcome
    std::uint64_t ok = 0;
    std::uint64_t not_found = 0;
    std::uint64_t invalid_input = 0;
    std::uint64_t shed = 0;
    std::uint64_t deadline_expired = 0;
    std::uint64_t shutting_down = 0;
    std::uint64_t errors = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_rows = 0;
    std::int64_t queue_depth = 0;
    util::Histogram latency_ms;         // per-request, kOk only
    util::Histogram batch_rows_hist;    // rows per executed batch
    util::Histogram queue_ok_ms;        // queue wait, served requests
    util::Histogram queue_rejected_ms;  // queue wait, shed/deadline-expired
    util::Histogram execute_ms;         // forward time per executed batch

    double mean_batch_rows() const {
      return batches ? static_cast<double>(batched_rows) /
                           static_cast<double>(batches)
                     : 0.0;
    }
  };

  Snapshot snapshot() const;
  void reset();

 private:
  std::atomic<std::uint64_t> ok_{0}, not_found_{0}, invalid_input_{0},
      shed_{0}, deadline_expired_{0}, shutting_down_{0}, errors_{0},
      batches_{0}, batched_rows_{0};
  std::atomic<std::int64_t> queue_depth_{0};

  mutable util::Mutex hist_mu_;
  util::Histogram latency_ms_ DEEPSZ_GUARDED_BY(hist_mu_);
  util::Histogram batch_rows_ DEEPSZ_GUARDED_BY(hist_mu_);
  util::Histogram queue_ok_ms_ DEEPSZ_GUARDED_BY(hist_mu_);
  util::Histogram queue_rejected_ms_ DEEPSZ_GUARDED_BY(hist_mu_);
  util::Histogram execute_ms_ DEEPSZ_GUARDED_BY(hist_mu_);
};

}  // namespace deepsz::server
