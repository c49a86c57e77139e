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
// Rows per batch: 1, 2, 4, ..., 1024.
util::Histogram batch_buckets() {
  return util::Histogram::exponential(1.0, 2.0, 11);
}
}  // namespace

ServerMetrics::ServerMetrics() : batch_rows_(batch_buckets()) {}

void ServerMetrics::record_result(InferStatus status) {
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
}

void ServerMetrics::record_batch(std::int64_t rows) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_rows_.fetch_add(static_cast<std::uint64_t>(rows),
                          std::memory_order_relaxed);
  util::MutexLock lock(hist_mu_);
  batch_rows_.record(static_cast<double>(rows));
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
             .batch_rows_hist = batch_buckets()};
  s.requests = s.ok + s.not_found + s.invalid_input + s.shed +
               s.deadline_expired + s.shutting_down + s.errors;
  util::MutexLock lock(hist_mu_);
  s.batch_rows_hist = batch_rows_;
  return s;
}

}  // namespace deepsz::server
