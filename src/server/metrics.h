// Serving-side counters: request outcomes, batches and the queue-depth
// gauge, snapshotable at any time.
//
// Counters are relaxed atomics (one fetch_add per event); the rows-per-batch
// histogram takes one mutex, held only for the O(log #buckets) record. The
// /metrics endpoint reads a consistent-enough Snapshot without stopping the
// world. ServerMetrics records no duration: every serving timing /metrics
// reports comes from obs::Tracer's stage histograms ("request", "queue",
// "queue_rejected", "forward").
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

  /// One terminal request outcome.
  void record_result(InferStatus status);

  /// One batched forward pass of `rows` coalesced rows.
  void record_batch(std::int64_t rows);

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
    util::Histogram batch_rows_hist;  // rows per executed batch

    double mean_batch_rows() const {
      return batches ? static_cast<double>(batched_rows) /
                           static_cast<double>(batches)
                     : 0.0;
    }
  };

  Snapshot snapshot() const;

 private:
  std::atomic<std::uint64_t> ok_{0}, not_found_{0}, invalid_input_{0},
      shed_{0}, deadline_expired_{0}, shutting_down_{0}, errors_{0},
      batches_{0}, batched_rows_{0};
  std::atomic<std::int64_t> queue_depth_{0};

  mutable util::Mutex hist_mu_;
  util::Histogram batch_rows_ DEEPSZ_GUARDED_BY(hist_mu_);
};

}  // namespace deepsz::server
