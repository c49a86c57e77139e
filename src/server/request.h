// Request/response vocabulary shared by the scheduler, the metrics, and the
// HTTP front end.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace deepsz::server {

/// Terminal status of one infer request. Every request submitted to the
/// scheduler completes with exactly one of these — admission control sheds
/// with kOverloaded instead of blocking, and shutdown drains with
/// kShuttingDown instead of dropping.
enum class InferStatus {
  kOk,
  kNotFound,          // model name not loaded
  kInvalidInput,      // payload shape does not match the model
  kOverloaded,        // per-model queue full; request shed at admission
  kDeadlineExceeded,  // deadline passed before the batch ran
  kShuttingDown,      // submitted after shutdown began
  kInternalError,     // forward pass / decode threw
};

const char* status_name(InferStatus status);

/// One inference request: `rows` row-major feature vectors of the model's
/// input width. `deadline` of epoch zero (the default) means none.
struct InferRequest {
  std::vector<float> input;
  std::int64_t rows = 1;
  std::chrono::steady_clock::time_point deadline{};

  bool has_deadline() const {
    return deadline.time_since_epoch().count() != 0;
  }
};

struct InferResult {
  InferStatus status = InferStatus::kInternalError;
  std::string error;           // non-empty for non-kOk statuses
  std::vector<float> output;   // rows x cols logits (kOk only)
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t batch_rows = 0; // total rows of that batch (batching evidence)

  bool ok() const { return status == InferStatus::kOk; }
};

}  // namespace deepsz::server
