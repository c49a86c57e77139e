#include "server/scheduler.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "serve/inference_session.h"

namespace deepsz::server {

using Clock = std::chrono::steady_clock;

namespace {
InferResult fail(InferStatus status, std::string why) {
  InferResult r;
  r.status = status;
  r.error = std::move(why);
  return r;
}
}  // namespace

/// A worker's bound model version. Rebuilt whenever the repository snapshot
/// changes (hot swap); the session must die before the network it binds.
struct RequestScheduler::WorkerState {
  std::shared_ptr<const ServedModel> model;
  std::unique_ptr<nn::Network> net;
  std::unique_ptr<serve::InferenceSession> session;

  void bind(std::shared_ptr<const ServedModel> next) {
    session.reset();  // unbinds weights from the old net before it dies
    net = std::make_unique<nn::Network>(next->make_network());
    session = std::make_unique<serve::InferenceSession>(*next->store, *net);
    // Serving workers take the sparse batched forward: micro-batches run
    // over the CSR view, touching only non-pruned weights.
    session->enable_sparse_forward(true);
    model = std::move(next);
  }
};

RequestScheduler::RequestScheduler(ModelRepository& repository,
                                   SchedulerOptions options,
                                   ServerMetrics* metrics)
    : repo_(repository), options_(options), metrics_(metrics) {
  if (options_.max_batch < 1 || options_.workers_per_model < 1 ||
      options_.queue_capacity < 1) {
    throw std::invalid_argument(
        "RequestScheduler: need max_batch >= 1, workers_per_model >= 1, "
        "queue_capacity >= 1");
  }
}

RequestScheduler::~RequestScheduler() { shutdown(); }

RequestScheduler::ModelQueue& RequestScheduler::queue_for(
    const std::string& name) {
  auto it = queues_.find(name);
  if (it == queues_.end()) {
    it = queues_.emplace(name, std::make_unique<ModelQueue>()).first;
    ModelQueue& mq = *it->second;
    for (int w = 0; w < options_.workers_per_model; ++w) {
      mq.workers.emplace_back([this, name, &mq] { worker_loop(name, mq); });
    }
  }
  return *it->second;
}

std::future<InferResult> RequestScheduler::submit(const std::string& model,
                                                  InferRequest req) {
  std::promise<InferResult> ready;
  auto fut = ready.get_future();

  auto snapshot = repo_.get(model);
  if (snapshot == nullptr) {
    if (metrics_) metrics_->record_result(InferStatus::kNotFound);
    ready.set_value(fail(InferStatus::kNotFound,
                         "no model \"" + model + "\" loaded"));
    return fut;
  }
  if (req.rows < 1 ||
      req.input.size() != static_cast<std::size_t>(req.rows) *
                              static_cast<std::size_t>(snapshot->in_features)) {
    if (metrics_) metrics_->record_result(InferStatus::kInvalidInput);
    ready.set_value(fail(
        InferStatus::kInvalidInput,
        "expected rows x " + std::to_string(snapshot->in_features) +
            " floats, got " + std::to_string(req.input.size()) + " for rows=" +
            std::to_string(req.rows)));
    return fut;
  }

  Pending pending;
  pending.req = std::move(req);
  // deepsz-lint: allow(clock-outside-obs) admission stamp for deadlines
  pending.enqueued = Clock::now();

  {
    util::MutexLock map_lock(map_mu_);
    if (shutdown_) {
      if (metrics_) metrics_->record_result(InferStatus::kShuttingDown);
      ready.set_value(fail(InferStatus::kShuttingDown, "server shutting down"));
      return fut;
    }
    if (queues_.find(model) == queues_.end() && repo_.get(model) == nullptr) {
      // The model was unloaded (and its queue forgotten) between the check
      // above and here: creating a fresh queue now would resurrect idle
      // worker threads for a dead name.
      if (metrics_) metrics_->record_result(InferStatus::kNotFound);
      ready.set_value(fail(InferStatus::kNotFound,
                           "no model \"" + model + "\" loaded"));
      return fut;
    }
    ModelQueue& mq = queue_for(model);
    util::MutexLock lock(mq.m);
    if (mq.q.size() >= options_.queue_capacity) {
      // Shed at admission: the queue wait is genuinely zero, and recording
      // it keeps the rejected-wait histogram honest about admission sheds.
      obs::Tracer::record_stage("queue_rejected", model, 0.0);
      if (metrics_) metrics_->record_result(InferStatus::kOverloaded);
      ready.set_value(fail(InferStatus::kOverloaded,
                           "queue full (" +
                               std::to_string(options_.queue_capacity) +
                               " pending) for model \"" + model + "\""));
      return fut;
    }
    fut = pending.promise.get_future();
    mq.q.push_back(std::move(pending));
    if (metrics_) metrics_->on_enqueue();
    mq.cv.notify_one();
  }
  return fut;
}

InferResult RequestScheduler::infer(const std::string& model,
                                    InferRequest req) {
  return submit(model, std::move(req)).get();
}

std::vector<RequestScheduler::Pending> RequestScheduler::take_batch_locked(
    ModelQueue& mq) const {
  std::vector<Pending> batch;
  std::int64_t rows = 0;
  do {
    rows += mq.q.front().req.rows;
    batch.push_back(std::move(mq.q.front()));
    mq.q.pop_front();
  } while (!mq.q.empty() &&
           rows + mq.q.front().req.rows <= options_.max_batch);
  return batch;
}

void RequestScheduler::worker_loop(std::string name, ModelQueue& mq) {
  WorkerState state;
  for (;;) {
    std::vector<Pending> batch;
    std::uint64_t gather_t0 = 0;
    {
      util::MutexLock lock(mq.m);
      if (mq.q.empty() && !mq.stop && state.session) {
        // Going idle: drop this worker's layer pins so the shared cache
        // budget really governs residency — pinned layers survive eviction,
        // and a worker that held its pins forever would keep every model it
        // ever served resident regardless of --cache-mb. Warm re-installs
        // on the next batch are map lookups (and refresh global LRU
        // recency), so a busy worker never gets here and pays nothing.
        state.session->release_layers();
      }
      while (!mq.stop && mq.q.empty()) mq.cv.wait(mq.m);
      if (mq.q.empty()) return;  // stop && drained

      gather_t0 = obs::now_ns();
      batch = take_batch_locked(mq);
    }
    if (metrics_) metrics_->on_dequeue(static_cast<std::int64_t>(batch.size()));
    if (obs::Tracer::enabled()) {
      // The gather: first pop of this batch until the batch closed.
      const std::uint64_t t1 = obs::now_ns();
      obs::Tracer::emit("linger", "server", name,
                        std::to_string(batch.size()) + "req", gather_t0,
                        t1 > gather_t0 ? t1 - gather_t0 : 0);
    }
    execute_batch(name, std::move(batch), state);
  }
}

/// A served request's admission-to-completion time feeds the "request"
/// stage; failures do not, so shed requests cannot fake a fast tail.
void RequestScheduler::finish(const std::string& name, Pending& p,
                              InferResult result) {
  if (result.ok()) {
    const std::uint64_t latency_ns =
        obs::now_ns() - obs::to_trace_ns(p.enqueued);
    obs::Tracer::record_stage("request", name,
                              static_cast<double>(latency_ns) / 1e6);
  }
  if (metrics_) metrics_->record_result(result.status);
  p.promise.set_value(std::move(result));
}

/// One "queue" span per request that reached a batch: admission to batch
/// start, phase "ok" or "expired". Its duration feeds stage "queue" for a
/// served request and "queue_rejected" for an expired one, whether or not
/// tracing is on.
void RequestScheduler::trace_queue_wait(const std::string& name,
                                        const Pending& p,
                                        Clock::time_point batch_start,
                                        bool served) {
  const std::uint64_t t0 = obs::to_trace_ns(p.enqueued);
  const std::uint64_t t1 = obs::to_trace_ns(batch_start);
  const std::uint64_t dur = t1 > t0 ? t1 - t0 : 0;
  obs::Tracer::emit("queue", "server", name, served ? "ok" : "expired", t0,
                    dur);
  obs::Tracer::record_stage(served ? "queue" : "queue_rejected", name,
                            static_cast<double>(dur) / 1e6);
}

void RequestScheduler::execute_batch(const std::string& name,
                                     std::vector<Pending> batch,
                                     WorkerState& state) {
  // deepsz-lint: allow(clock-outside-obs) checked against deadlines
  const auto start = Clock::now();

  // Deadline-expired requests complete without touching the model; the rest
  // proceed. (A deadline covers queueing, not the forward pass: once a
  // request makes it into a batch it runs.)
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (auto& p : batch) {
    if (p.req.has_deadline() && p.req.deadline < start) {
      trace_queue_wait(name, p, start, /*served=*/false);
      finish(name, p, fail(InferStatus::kDeadlineExceeded, "deadline expired"));
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  auto model = repo_.get(name);
  if (model == nullptr) {
    for (auto& p : live) {
      finish(name, p,
             fail(InferStatus::kNotFound,
                  "model \"" + name + "\" was unloaded"));
    }
    return;
  }

  // Shape re-check against the *current* snapshot: a hot swap between
  // admission and execution may have changed the input width.
  std::vector<Pending> runnable;
  runnable.reserve(live.size());
  std::int64_t rows = 0;
  for (auto& p : live) {
    if (p.req.input.size() != static_cast<std::size_t>(p.req.rows) *
                                  static_cast<std::size_t>(model->in_features)) {
      finish(name, p,
             fail(InferStatus::kInvalidInput,
                  "model \"" + name + "\" input width changed to " +
                      std::to_string(model->in_features) +
                      " while the request was queued"));
    } else {
      rows += p.req.rows;
      runnable.push_back(std::move(p));
    }
  }
  if (runnable.empty()) return;

  try {
    if (state.model != model) state.bind(model);

    nn::Tensor x({rows, model->in_features});
    float* dst = x.data();
    for (const auto& p : runnable) {
      std::memcpy(dst, p.req.input.data(),
                  p.req.input.size() * sizeof(float));
      dst += p.req.input.size();
    }

    for (const auto& p : runnable) {
      trace_queue_wait(name, p, start, /*served=*/true);
    }

    obs::TraceSpan forward_span("forward", "server");
    forward_span.set_detail(name);
    forward_span.set_phase(std::to_string(rows) + "rows");
    forward_span.set_stage(name);
    nn::Tensor y = state.session->infer(x);
    forward_span.close();
    if (metrics_) metrics_->record_batch(rows);

    const std::int64_t cols = y.dim(1);
    const float* src = y.data();
    for (auto& p : runnable) {
      InferResult r;
      r.status = InferStatus::kOk;
      r.rows = p.req.rows;
      r.cols = cols;
      r.output.assign(src, src + p.req.rows * cols);
      src += p.req.rows * cols;
      r.batch_rows = rows;
      finish(name, p, std::move(r));
    }
  } catch (const std::exception& e) {
    // A corrupt layer or a mid-flight unload surfacing as a decode failure
    // fails this batch, not the worker: drop the bound session so the next
    // batch rebinds fresh.
    state.session.reset();
    state.net.reset();
    state.model.reset();
    for (auto& p : runnable) {
      finish(name, p, fail(InferStatus::kInternalError, e.what()));
    }
  }
}

void RequestScheduler::forget(const std::string& model) {
  std::unique_ptr<ModelQueue> mq;
  {
    util::MutexLock lock(map_mu_);
    if (shutdown_) return;  // shutdown() already owns every queue
    auto it = queues_.find(model);
    if (it == queues_.end()) return;
    mq = std::move(it->second);
    queues_.erase(it);
    // From here no submit can reach this queue (submits find the map entry
    // gone and create a fresh one); joining outside map_mu_ keeps other
    // models' traffic flowing while the workers drain.
  }
  {
    util::MutexLock lock(mq->m);
    mq->stop = true;
  }
  mq->cv.notify_all();
  for (auto& worker : mq->workers) worker.join();
}

void RequestScheduler::shutdown() {
  std::vector<ModelQueue*> queues;
  {
    util::MutexLock lock(map_mu_);
    if (shutdown_) return;
    shutdown_ = true;
    for (auto& [_, mq] : queues_) queues.push_back(mq.get());
  }
  for (ModelQueue* mq : queues) {
    {
      util::MutexLock lock(mq->m);
      mq->stop = true;
    }
    mq->cv.notify_all();
  }
  for (ModelQueue* mq : queues) {
    for (auto& worker : mq->workers) worker.join();
  }
}

std::size_t RequestScheduler::queue_depth(const std::string& model) const {
  util::MutexLock map_lock(map_mu_);
  auto it = queues_.find(model);
  if (it == queues_.end()) return 0;
  util::MutexLock lock(it->second->m);
  return it->second->q.size();
}

}  // namespace deepsz::server
