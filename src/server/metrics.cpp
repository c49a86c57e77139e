#include "server/metrics.h"

namespace deepsz::server {

const char* status_name(InferStatus status) {
  switch (status) {
    case InferStatus::kOk: return "ok";
    case InferStatus::kNotFound: return "not_found";
    case InferStatus::kInvalidInput: return "invalid_input";
    case InferStatus::kOverloaded: return "overloaded";
    case InferStatus::kDeadlineExceeded: return "deadline_exceeded";
    case InferStatus::kShuttingDown: return "shutting_down";
    case InferStatus::kInternalError: return "internal_error";
  }
  return "unknown";
}

namespace {
// 0.001 ms .. ~0.001*1.6^39 ≈ 73 s: covers sub-microsecond loopback hits
// through multi-second cold decodes at ~1.6x bucket resolution.
util::Histogram latency_buckets() {
  return util::Histogram::exponential(0.001, 1.6, 40);
}
// Rows per batch: 1, 2, 4, ..., 1024.
util::Histogram batch_buckets() {
  return util::Histogram::exponential(1.0, 2.0, 11);
}
}  // namespace

ServerMetrics::ServerMetrics()
    : latency_ms_(latency_buckets()),
      batch_rows_(batch_buckets()),
      queue_ok_ms_(latency_buckets()),
      queue_rejected_ms_(latency_buckets()),
      execute_ms_(latency_buckets()) {}

void ServerMetrics::record_result(InferStatus status, double latency_ms,
                                  double queue_ms) {
  switch (status) {
    case InferStatus::kOk:
      ok_.fetch_add(1, std::memory_order_relaxed);
      break;
    case InferStatus::kNotFound:
      not_found_.fetch_add(1, std::memory_order_relaxed);
      break;
    case InferStatus::kInvalidInput:
      invalid_input_.fetch_add(1, std::memory_order_relaxed);
      break;
    case InferStatus::kOverloaded:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case InferStatus::kDeadlineExceeded:
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      break;
    case InferStatus::kShuttingDown:
      shutting_down_.fetch_add(1, std::memory_order_relaxed);
      break;
    case InferStatus::kInternalError:
      errors_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  const bool rejected = status == InferStatus::kOverloaded ||
                        status == InferStatus::kDeadlineExceeded;
  if (status == InferStatus::kOk || (rejected && queue_ms >= 0.0)) {
    util::MutexLock lock(hist_mu_);
    if (status == InferStatus::kOk) {
      latency_ms_.record(latency_ms);
      if (queue_ms >= 0.0) queue_ok_ms_.record(queue_ms);
    } else {
      queue_rejected_ms_.record(queue_ms);
    }
  }
}

void ServerMetrics::record_batch(std::int64_t rows, double forward_ms) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_rows_.fetch_add(static_cast<std::uint64_t>(rows),
                          std::memory_order_relaxed);
  util::MutexLock lock(hist_mu_);
  batch_rows_.record(static_cast<double>(rows));
  execute_ms_.record(forward_ms);
}

ServerMetrics::Snapshot ServerMetrics::snapshot() const {
  Snapshot s{.requests = 0,
             .ok = ok_.load(std::memory_order_relaxed),
             .not_found = not_found_.load(std::memory_order_relaxed),
             .invalid_input = invalid_input_.load(std::memory_order_relaxed),
             .shed = shed_.load(std::memory_order_relaxed),
             .deadline_expired =
                 deadline_expired_.load(std::memory_order_relaxed),
             .shutting_down = shutting_down_.load(std::memory_order_relaxed),
             .errors = errors_.load(std::memory_order_relaxed),
             .batches = batches_.load(std::memory_order_relaxed),
             .batched_rows = batched_rows_.load(std::memory_order_relaxed),
             .queue_depth = queue_depth_.load(std::memory_order_relaxed),
             .latency_ms = latency_buckets(),
             .batch_rows_hist = batch_buckets(),
             .queue_ok_ms = latency_buckets(),
             .queue_rejected_ms = latency_buckets(),
             .execute_ms = latency_buckets()};
  s.requests = s.ok + s.not_found + s.invalid_input + s.shed +
               s.deadline_expired + s.shutting_down + s.errors;
  util::MutexLock lock(hist_mu_);
  s.latency_ms = latency_ms_;
  s.batch_rows_hist = batch_rows_;
  s.queue_ok_ms = queue_ok_ms_;
  s.queue_rejected_ms = queue_rejected_ms_;
  s.execute_ms = execute_ms_;
  return s;
}

void ServerMetrics::reset() {
  ok_ = not_found_ = invalid_input_ = shed_ = deadline_expired_ =
      shutting_down_ = errors_ = batches_ = batched_rows_ = 0;
  queue_depth_ = 0;
  util::MutexLock lock(hist_mu_);
  latency_ms_.reset();
  batch_rows_.reset();
  queue_ok_ms_.reset();
  queue_rejected_ms_.reset();
  execute_ms_.reset();
}

}  // namespace deepsz::server
