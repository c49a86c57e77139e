// Staged execution of one compression run: Prune -> Assess -> Optimize ->
// Encode over one network, with per-stage reports, progress callbacks and
// cooperative cancellation.
//
// Stages run independently, so a caller can re-run a later stage without
// paying for the earlier ones again — the canonical case being "re-optimize
// under a new accuracy or size budget without re-assessing" (assessment is
// the expensive stage: dozens of accuracy tests; re-optimization is a pure
// DP over the recorded assessment points). set_expected_acc_loss() /
// set_target_ratio() invalidate Optimize+Encode and keep Prune+Assess.
//
// Cancellation is cooperative: request_cancel() (thread-safe, callable from
// a progress callback or another thread) makes the next checkpoint inside a
// running stage throw Cancelled. A cancelled stage leaves no partial
// results — the session restores the pruned weights and the stage stays
// not-done — and the session remains usable after clear_cancel().
#pragma once

#include <atomic>

#include "compress/compressor.h"
#include "obs/trace.h"

namespace deepsz::compress {

class CompressionSession {
 public:
  /// `net` is modified in place across the stages: pruned and retrained by
  /// Prune, temporarily perturbed by Assess/Optimize (restored), and finally
  /// left holding the decoded weights by Encode.
  /// All references must outlive the session.
  CompressionSession(std::shared_ptr<ModelCompressor> strategy,
                     nn::Network& net, const nn::Tensor& train_images,
                     const std::vector<int>& train_labels,
                     const nn::Tensor& test_images,
                     const std::vector<int>& test_labels,
                     CompressSpec spec = {});

  CompressionSession(const CompressionSession&) = delete;
  CompressionSession& operator=(const CompressionSession&) = delete;

  const CompressorInfo& info() const { return info_; }

  /// Stage 1: magnitude pruning + masked retraining per spec.prune.
  void run_prune();

  /// Alternative stage 1: adopt a network that is already pruned (masks
  /// installed), e.g. to run several strategies on one shared pruning.
  /// Extracts the masked fc-layers as-is; no retraining.
  void adopt_pruned();

  /// As adopt_pruned(), but reuses a caller-owned oracle and an already
  /// measured pruned accuracy instead of re-running the test set — the
  /// per-row saving compare_strategies depends on when it runs many
  /// sessions over one shared pruning. The oracle must have been built
  /// over this network in its current (pruned) state.
  void adopt_pruned(std::shared_ptr<core::CachedHeadOracle> oracle,
                    const nn::Accuracy& acc_pruned);

  /// Stage 2: error-bound assessment. Recorded as skipped for strategies
  /// without a tunable bound. Requires Prune.
  void run_assess();

  /// Stage 3: error-bound configuration optimization under the current
  /// budget (expected-accuracy or expected-ratio mode). Requires Assess.
  void run_optimize();

  /// Stage 4: emit the container, then decode + reload it into the network
  /// and measure the decoded accuracy (the numbers the paper's tables
  /// report). Requires Optimize.
  void run_encode();

  /// Runs every stage that is not yet done, in order, and returns the
  /// report. Stages already run (or adopted) are not repeated.
  CompressReport run();

  /// Change the expected-accuracy budget: keeps Prune+Assess, invalidates
  /// Optimize+Encode (run() or run_optimize() re-runs them).
  void set_expected_acc_loss(double expected_acc_loss);
  /// Switch to (or re-budget) expected-ratio mode; nullopt returns to
  /// expected-accuracy mode. Same invalidation as set_expected_acc_loss.
  void set_target_ratio(std::optional<double> target_ratio);

  bool stage_done(Stage stage) const;
  const StageReport& stage_report(Stage stage) const;

  using ProgressFn = std::function<void(Stage, const std::string&)>;
  /// Progress callback; invoked from the thread running the stage. May call
  /// request_cancel().
  void set_progress(ProgressFn fn) { progress_ = std::move(fn); }

  /// Thread-safe. The next checkpoint in a running (or future) stage throws
  /// Cancelled; sticky until clear_cancel().
  void request_cancel() { cancel_.store(true, std::memory_order_relaxed); }
  void clear_cancel() { cancel_.store(false, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  /// Live pipeline state (valid up to the last completed stage).
  const SessionState& state() const { return state_; }

  /// Snapshot of a completed run; requires Encode done.
  CompressReport report() const;

 private:
  StageReport& mutable_report(Stage stage);
  void require_done(Stage stage, const char* by) const;
  /// Labels `span` (the stage's stopwatch and trace span) and starts the
  /// stage; finish_stage closes it and records its duration.
  void begin_stage(Stage stage, obs::TraceSpan& span);
  void finish_stage(Stage stage, bool skipped, obs::TraceSpan& span,
                    std::string detail);
  void checkpoint();
  void restore_pruned_weights();
  void invalidate_from(Stage stage);
  void prepare_state_hooks(Stage stage);

  std::shared_ptr<ModelCompressor> strategy_;
  CompressorInfo info_;
  SessionState state_;
  std::array<StageReport, kNumStages> reports_;
  ProgressFn progress_;
  std::atomic<bool> cancel_{false};
};

}  // namespace deepsz::compress
