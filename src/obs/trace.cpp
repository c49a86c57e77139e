#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <utility>

#include "util/mutex.h"

namespace deepsz::obs {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Process-start epoch of the trace time base. Constant-initialized at load
/// so uptime and span timestamps share one zero point.
const SteadyClock::time_point g_epoch = SteadyClock::now();

std::uint64_t ns_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

/// Truncating copy into a fixed label field; always NUL-terminates.
void copy_label(char (&dst)[kArgBytes], std::string_view src) {
  const std::size_t n = std::min(src.size(), kArgBytes - 1);
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
  dst[n] = '\0';
}

/// One ring slot. Every field is an atomic written with relaxed stores by
/// the single owning thread; `seq` brackets the payload seqlock-style so a
/// concurrent snapshot can detect (and skip) a slot mid-overwrite instead
/// of returning torn data. On x86 the whole protocol is plain stores.
struct Slot {
  std::atomic<std::uint64_t> seq{0};  // 0 = in progress, else event index + 1
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> category{nullptr};
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> dur_ns{0};
  std::array<std::atomic<char>, kArgBytes> detail{};
  std::array<std::atomic<char>, kArgBytes> phase{};
};

void store_label(std::array<std::atomic<char>, kArgBytes>& dst,
                 std::string_view src) {
  const std::size_t n = std::min(src.size(), kArgBytes - 1);
  for (std::size_t i = 0; i < n; ++i) {
    dst[i].store(src[i], std::memory_order_relaxed);
  }
  dst[n].store('\0', std::memory_order_relaxed);
}

void load_label(const std::array<std::atomic<char>, kArgBytes>& src,
                char (&dst)[kArgBytes]) {
  for (std::size_t i = 0; i < kArgBytes; ++i) {
    dst[i] = src[i].load(std::memory_order_relaxed);
  }
  dst[kArgBytes - 1] = '\0';
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Single-writer, many-reader bounded span buffer. The owning thread pushes;
/// any thread may snapshot concurrently.
class ThreadRing {
 public:
  ThreadRing(std::size_t capacity, std::uint32_t id)
      : slots_(round_up_pow2(capacity)),
        mask_(slots_.size() - 1),
        id_(id) {}

  std::uint32_t id() const { return id_; }

  void push(const char* name, const char* category, std::string_view detail,
            std::string_view phase, std::uint64_t start_ns,
            std::uint64_t dur_ns) {
    const std::uint64_t i = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[i & mask_];
    // Invalidate, publish payload, validate: a reader that saw the old seq
    // re-reads it after copying and finds 0 or the new index — either way
    // the torn copy is discarded.
    s.seq.store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.name.store(name, std::memory_order_relaxed);
    s.category.store(category, std::memory_order_relaxed);
    s.start_ns.store(start_ns, std::memory_order_relaxed);
    s.dur_ns.store(dur_ns, std::memory_order_relaxed);
    store_label(s.detail, detail);
    store_label(s.phase, phase);
    std::atomic_thread_fence(std::memory_order_release);
    s.seq.store(i + 1, std::memory_order_relaxed);
    head_.store(i + 1, std::memory_order_release);
  }

  /// Copies the retained window into `out`; returns how many events this
  /// ring has dropped (overwritten) so far.
  std::uint64_t collect(std::vector<TraceEvent>& out) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t cap = slots_.size();
    const std::uint64_t begin = head > cap ? head - cap : 0;
    for (std::uint64_t i = begin; i < head; ++i) {
      const Slot& s = slots_[i & mask_];
      if (s.seq.load(std::memory_order_acquire) != i + 1) continue;
      TraceEvent e;
      e.name = s.name.load(std::memory_order_relaxed);
      e.category = s.category.load(std::memory_order_relaxed);
      e.start_ns = s.start_ns.load(std::memory_order_relaxed);
      e.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
      load_label(s.detail, e.detail);
      load_label(s.phase, e.phase);
      e.tid = id_;
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != i + 1) continue;
      out.push_back(e);
    }
    return head > cap ? head - cap : 0;
  }

  /// Test/tool-only: callers guarantee the owning thread is not pushing.
  void reset_unsynchronized() {
    head_.store(0, std::memory_order_relaxed);
    for (Slot& s : slots_) s.seq.store(0, std::memory_order_relaxed);
  }

 private:
  std::vector<Slot> slots_;
  const std::uint64_t mask_;
  const std::uint32_t id_;
  std::atomic<std::uint64_t> head_{0};  // events ever pushed
};

/// Registry of every ring ever created plus a free list: connection threads
/// come and go, so an exiting thread returns its ring for the next thread
/// to reuse instead of growing the registry forever. Rings of dead threads
/// stay snapshotable until reused.
struct Registry {
  util::Mutex mu;
  std::vector<std::shared_ptr<ThreadRing>> all DEEPSZ_GUARDED_BY(mu);
  std::vector<std::shared_ptr<ThreadRing>> free_list DEEPSZ_GUARDED_BY(mu);
  std::uint32_t next_id DEEPSZ_GUARDED_BY(mu) = 1;
  std::size_t capacity DEEPSZ_GUARDED_BY(mu) = 4096;
  // Dropped spans from rings that were reset (their heads restarted).
  std::uint64_t dropped_base DEEPSZ_GUARDED_BY(mu) = 0;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives every thread
  return *r;
}

struct StageKey {
  std::string stage;
  std::string model;
  bool operator<(const StageKey& o) const {
    return stage < o.stage || (stage == o.stage && model < o.model);
  }
};

/// (stage, model) -> histogram, each with stage_buckets().
struct StageMap {
  util::Mutex mu;
  std::map<StageKey, util::Histogram> hists DEEPSZ_GUARDED_BY(mu);
};

StageMap& stage_map() {
  static StageMap* m = new StageMap;
  return *m;
}

std::shared_ptr<ThreadRing> acquire_ring() {
  Registry& r = registry();
  util::MutexLock lock(r.mu);
  if (!r.free_list.empty()) {
    auto ring = std::move(r.free_list.back());
    r.free_list.pop_back();
    return ring;
  }
  auto ring = std::make_shared<ThreadRing>(r.capacity, r.next_id++);
  r.all.push_back(ring);
  return ring;
}

void release_ring(std::shared_ptr<ThreadRing> ring) {
  if (!ring) return;
  Registry& r = registry();
  util::MutexLock lock(r.mu);
  // reset() may have cleared the registry while this thread still held the
  // ring; only registered rings go back on the free list.
  for (const auto& known : r.all) {
    if (known == ring) {
      r.free_list.push_back(std::move(ring));
      return;
    }
  }
}

/// Thread-local ring handle; the destructor runs at thread exit and returns
/// the ring for reuse.
struct RingHolder {
  std::shared_ptr<ThreadRing> ring;
  ~RingHolder() { release_ring(std::move(ring)); }
};

ThreadRing& local_ring() {
  thread_local RingHolder holder;
  if (!holder.ring) holder.ring = acquire_ring();
  return *holder.ring;
}

/// Model of the innermost staged span open on this thread ("" = none); the
/// label set_stage() without a model inherits.
thread_local char t_stage_model[kArgBytes] = {};

}  // namespace

std::uint64_t now_ns() { return ns_between(g_epoch, SteadyClock::now()); }

util::Histogram stage_buckets() {
  return util::Histogram::exponential(0.001, 1.6, 40);
}

std::uint64_t to_trace_ns(SteadyClock::time_point tp) {
  return ns_between(g_epoch, tp);
}

std::atomic<bool>& Tracer::enabled_flag() {
  static std::atomic<bool> enabled{false};
  return enabled;
}

void Tracer::set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

void Tracer::emit(const char* name, const char* category,
                  std::string_view detail, std::string_view phase,
                  std::uint64_t start_ns, std::uint64_t dur_ns) {
  if (!enabled()) return;
  local_ring().push(name, category, detail, phase, start_ns, dur_ns);
}

void Tracer::record_stage(std::string_view stage, std::string_view model,
                          double ms) {
  StageMap& m = stage_map();
  util::MutexLock lock(m.mu);
  auto it = m.hists.find({std::string(stage), std::string(model)});
  if (it == m.hists.end()) {
    it = m.hists
             .emplace(StageKey{std::string(stage), std::string(model)},
                      stage_buckets())
             .first;
  }
  it->second.record(ms);
}

double Tracer::stage_total_ms(std::string_view stage,
                              std::string_view model) {
  StageMap& m = stage_map();
  util::MutexLock lock(m.mu);
  auto it = m.hists.find({std::string(stage), std::string(model)});
  return it == m.hists.end() ? 0.0 : it->second.sum();
}

TraceSnapshot Tracer::snapshot(std::uint64_t last_ns) {
  TraceSnapshot snap;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    Registry& r = registry();
    util::MutexLock lock(r.mu);
    rings = r.all;
    snap.dropped = r.dropped_base;
  }
  for (const auto& ring : rings) {
    snap.dropped += ring->collect(snap.events);
  }
  if (last_ns > 0) {
    const std::uint64_t now = now_ns();
    const std::uint64_t cutoff = now > last_ns ? now - last_ns : 0;
    std::erase_if(snap.events, [cutoff](const TraceEvent& e) {
      return e.start_ns + e.dur_ns < cutoff;
    });
  }
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return snap;
}

std::uint64_t Tracer::dropped_total() {
  std::vector<TraceEvent> scratch;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::uint64_t dropped;
  {
    Registry& r = registry();
    util::MutexLock lock(r.mu);
    rings = r.all;
    dropped = r.dropped_base;
  }
  for (const auto& ring : rings) {
    scratch.clear();
    dropped += ring->collect(scratch);
  }
  return dropped;
}

std::vector<StageTimes> Tracer::stage_snapshot() {
  std::vector<StageTimes> out;
  StageMap& m = stage_map();
  util::MutexLock lock(m.mu);
  out.reserve(m.hists.size());
  for (const auto& [key, hist] : m.hists) {
    out.push_back(StageTimes{key.stage, key.model, hist});
  }
  return out;
}

void Tracer::set_ring_capacity(std::size_t slots) {
  Registry& r = registry();
  util::MutexLock lock(r.mu);
  r.capacity = slots < 2 ? 2 : slots;
}

void Tracer::reset() {
  {
    Registry& r = registry();
    util::MutexLock lock(r.mu);
    for (const auto& ring : r.all) ring->reset_unsynchronized();
    r.dropped_base = 0;
  }
  StageMap& m = stage_map();
  util::MutexLock lock(m.mu);
  m.hists.clear();
}

void TraceSpan::set_detail(std::string_view detail) {
  if (record_) copy_label(detail_, detail);
}

void TraceSpan::set_phase(std::string_view phase) {
  if (record_) copy_label(phase_, phase);
}

void TraceSpan::set_stage(std::string_view model) {
  if (!open_) return;
  if (!stage_set_) copy_label(outer_stage_model_, t_stage_model);
  copy_label(stage_model_, model);
  copy_label(t_stage_model, model);
  stage_set_ = true;
}

void TraceSpan::set_stage() {
  if (t_stage_model[0] != '\0') set_stage(t_stage_model);
}

double TraceSpan::close() {
  if (open_) {
    open_ = false;
    const std::uint64_t end = now_ns();
    dur_ns_ = end > start_ns_ ? end - start_ns_ : 0;
    if (record_) {
      Tracer::emit(name_, category_, detail_, phase_, start_ns_, dur_ns_);
    }
    if (stage_set_) {
      Tracer::record_stage(name_, stage_model_,
                           static_cast<double>(dur_ns_) / 1e6);
      copy_label(t_stage_model, outer_stage_model_);
    }
  }
  return static_cast<double>(dur_ns_) / 1e6;
}

}  // namespace deepsz::obs
