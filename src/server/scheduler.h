// Dynamic micro-batching request scheduler.
//
// Each model gets a bounded FIFO queue and a small pool of worker threads;
// each worker owns one InferenceSession (and its network) per model version,
// so steady-state batches bind zero weights and run zero codec work. The
// batcher is work-conserving: an idle worker pops the queue head plus every
// queued request behind it that still fits in max_batch rows and runs ONE
// forward pass for the batch at once, waiting on no timer. Batches form from
// requests that arrive while the model's workers are busy, so under
// concurrent load the per-row cost amortizes the way Figure 7a's batched
// forward passes do.
//
// Admission control instead of backpressure: a full queue sheds new arrivals
// immediately with kOverloaded (the HTTP layer maps it to 429), and a
// request whose deadline expires while queued completes kDeadlineExceeded
// without touching the model. Hot-swap safety: a batch executes against the
// ServedModel snapshot it fetched at batch start; ModelRepository::load
// swaps the pointer for later batches only, so in-flight requests are never
// dropped or served from a half-swapped model.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/metrics.h"
#include "server/model_repository.h"
#include "server/request.h"
#include "util/mutex.h"

namespace deepsz::server {

struct SchedulerOptions {
  /// Max rows coalesced into one forward pass (1 disables batching).
  std::int64_t max_batch = 16;
  /// Pending requests per model beyond which submit() sheds (kOverloaded).
  std::size_t queue_capacity = 256;
  /// Worker threads (and InferenceSessions) per model.
  int workers_per_model = 2;
};

class RequestScheduler {
 public:
  /// `repository` must outlive the scheduler. `metrics` is optional.
  explicit RequestScheduler(ModelRepository& repository,
                            SchedulerOptions options = {},
                            ServerMetrics* metrics = nullptr);
  ~RequestScheduler();  // shutdown(): drains queued work, joins workers

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Enqueues one request; completes with exactly one InferResult. Fails
  /// fast (ready future) on unknown model, bad shape, full queue, shutdown.
  std::future<InferResult> submit(const std::string& model, InferRequest req);

  /// Blocking convenience wrapper around submit().
  InferResult infer(const std::string& model, InferRequest req);

  /// Stops admission (new submits complete kShuttingDown), lets workers
  /// drain every queued request, then joins them. Idempotent.
  void shutdown();

  /// Tears down `model`'s queue and worker threads (drained first; queued
  /// requests complete, typically kNotFound after an unload). Call after
  /// ModelRepository::unload so cycling uniquely-named models does not
  /// accumulate idle workers; a later submit recreates the queue. No-op for
  /// unknown names.
  void forget(const std::string& model);

  /// Pending requests queued for `model` right now (0 for unknown names).
  std::size_t queue_depth(const std::string& model) const;

  const SchedulerOptions& options() const { return options_; }

 private:
  struct Pending {
    InferRequest req;
    std::promise<InferResult> promise;
    std::chrono::steady_clock::time_point enqueued;
  };
  struct ModelQueue {
    util::Mutex m;
    util::CondVar cv;
    std::deque<Pending> q DEEPSZ_GUARDED_BY(m);
    bool stop DEEPSZ_GUARDED_BY(m) = false;
    // Populated under map_mu_ before any submit can reach this queue; joined
    // by forget()/shutdown() only after the map entry is unreachable, so the
    // vector itself needs no lock.
    std::vector<std::thread> workers;
  };

  struct WorkerState;  // per-worker session + network, one model version

  ModelQueue& queue_for(const std::string& name) DEEPSZ_REQUIRES(map_mu_);
  void worker_loop(std::string name, ModelQueue& mq);
  /// Pops the (non-empty) queue's head plus every request behind it that
  /// still fits in max_batch rows, in FIFO order.
  std::vector<Pending> take_batch_locked(ModelQueue& mq) const
      DEEPSZ_REQUIRES(mq.m);
  void execute_batch(const std::string& name, std::vector<Pending> batch,
                     WorkerState& state);
  void finish(const std::string& name, Pending& p, InferResult result);
  static void trace_queue_wait(const std::string& name, const Pending& p,
                               std::chrono::steady_clock::time_point batch_start,
                               bool served);

  ModelRepository& repo_;
  const SchedulerOptions options_;
  ServerMetrics* metrics_;

  mutable util::Mutex map_mu_;
  std::map<std::string, std::unique_ptr<ModelQueue>> queues_
      DEEPSZ_GUARDED_BY(map_mu_);
  bool shutdown_ DEEPSZ_GUARDED_BY(map_mu_) = false;
};

}  // namespace deepsz::server
