// End-to-end tracing: per-request spans from socket to codec, and the one
// stopwatch behind every duration the system reports.
//
// Every instrumented scope creates a TraceSpan (RAII). A span always reads
// the clock when it opens and when it closes, and close() returns the
// measured duration, so /metrics, the compress stage reports and the
// benches all read the same instrument. Tracing gates only the ring write:
// when enabled at construction, the span is recorded into the calling
// thread's lock-free ring buffer on close. Rings
// are fixed-capacity (drop-oldest, counted), written with relaxed atomics
// only — the hot path takes no lock — and the process-wide Tracer snapshots
// every ring without stopping writers via per-slot sequence validation
// (a seqlock: a torn slot fails validation and is skipped, never returned).
//
// Alongside the rings, Tracer keeps per-(stage, model) latency histograms —
// the aggregate view `/metrics` exports as deepsz_stage_ms{stage,model}, and
// the only source of its serving timing families — fed by spans via
// TraceSpan::set_stage() (or record_stage()) whether or not tracing is on.
// Span durations live in the ring for a bounded window; stage histograms
// accumulate forever.
//
// Export: obs/export.h turns a snapshot into Chrome trace-event JSON that
// loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing; the
// daemon serves it at `GET /v1/trace?last_ms=N`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace deepsz::obs {

/// Label capacity per slot (one byte reserved for the NUL): dynamic labels
/// (model, layer, phase) are copied truncated so the ring stays fixed-size
/// and the writer never allocates.
inline constexpr std::size_t kArgBytes = 24;

/// One recorded span, as copied out of a ring by Tracer::snapshot().
/// `name` and `category` are static-lifetime strings (the TraceSpan
/// contract); `detail` and `phase` are NUL-terminated truncated copies.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  char detail[kArgBytes] = {};
  char phase[kArgBytes] = {};
  std::uint64_t start_ns = 0;  // since process start (steady clock)
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  // ring id, stable per OS thread while it lives
};

/// Everything Tracer::snapshot() returns: retained events (oldest first)
/// plus how many were overwritten before anyone looked.
struct TraceSnapshot {
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

/// One per-(stage, model) latency histogram, for /metrics.
struct StageTimes {
  std::string stage;
  std::string model;
  util::Histogram hist;
};

/// Nanoseconds since process start on the steady clock — the time base of
/// every trace event (it also backs the /metrics uptime gauge).
std::uint64_t now_ns();

/// The bucket layout of every stage histogram, and so of every timing
/// family /metrics renders: 0.001 ms .. ~0.001*1.6^39 ≈ 73 s at ~1.6x
/// resolution, from loopback hits through multi-second cold decodes.
util::Histogram stage_buckets();

/// A steady_clock time_point on the trace time base, for spans whose start
/// was captured before the emitting code runs (queue waits).
std::uint64_t to_trace_ns(std::chrono::steady_clock::time_point tp);

class Tracer {
 public:
  /// Whether spans opened now are written to the rings.
  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on);

  /// Records one complete span into the calling thread's ring. `name` and
  /// `category` must be static-lifetime strings; `detail`/`phase` are
  /// copied (truncated to kArgBytes - 1). No-op while disabled.
  static void emit(const char* name, const char* category,
                   std::string_view detail, std::string_view phase,
                   std::uint64_t start_ns, std::uint64_t dur_ns);

  /// Adds one observation to the (stage, model) histogram, whether or not
  /// tracing is enabled. Takes a mutex (not ring-buffered): callers are
  /// per-batch or per-miss scopes, not per-element loops.
  static void record_stage(std::string_view stage, std::string_view model,
                           double ms);

  /// Sum of every observation in the (stage, model) histogram so far, in
  /// milliseconds; 0 when it has none.
  static double stage_total_ms(std::string_view stage, std::string_view model);

  /// Copies every ring without stopping writers. `last_ns` > 0 keeps only
  /// events ending within the trailing window. Events are sorted by
  /// start time; `dropped` counts ring overwrites since process start (or
  /// the last reset()).
  static TraceSnapshot snapshot(std::uint64_t last_ns = 0);

  /// Spans overwritten before snapshot could see them, across all rings.
  static std::uint64_t dropped_total();

  /// The per-(stage, model) histograms, for /metrics.
  static std::vector<StageTimes> stage_snapshot();

  /// Slots per thread ring created AFTER this call (existing rings keep
  /// their capacity). Rounded up to a power of two; default 4096.
  static void set_ring_capacity(std::size_t slots);

  /// Clears every ring, the stage histograms, and the dropped counter.
  /// Callers must ensure no thread is concurrently recording (test and
  /// tool use only).
  static void reset();

 private:
  static std::atomic<bool>& enabled_flag();
};

/// RAII scope and stopwatch: times [construction, close()) and, when
/// tracing was enabled at construction, records it as one complete span.
/// A span opened while tracing is disabled still times itself and still
/// feeds its stage histogram, but never writes to the ring, even if tracing
/// is enabled meanwhile (a half-timed span would lie).
class TraceSpan {
 public:
  /// `name`/`category` must be static-lifetime strings (they are stored as
  /// pointers in the ring). Typical categories: "http", "server", "serve",
  /// "compress", "train".
  explicit TraceSpan(const char* name, const char* category = "app")
      : name_(name),
        category_(category),
        record_(Tracer::enabled()),
        start_ns_(now_ns()) {}
  ~TraceSpan() { close(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True until close() while the span is headed for the ring.
  bool active() const { return record_ && open_; }

  /// Free-form label (layer or model name), truncated to kArgBytes - 1.
  void set_detail(std::string_view detail);
  /// Phase/kind label (decode phase, serving form, outcome).
  void set_phase(std::string_view phase);
  /// Also record the duration into the (name, model) stage histogram at
  /// close — the bridge from spans to deepsz_stage_ms{stage,model}. Until
  /// this span closes, spans on the same thread that call set_stage()
  /// without a model inherit `model`.
  void set_stage(std::string_view model);
  /// set_stage() with the model of the innermost staged span still open on
  /// this thread; no histogram when there is none.
  void set_stage();

  /// Ends the span now and returns its duration in milliseconds.
  /// Idempotent: later calls (and the destructor) return the same value.
  double close();

 private:
  const char* name_;
  const char* category_;
  const bool record_;
  bool open_ = true;
  bool stage_set_ = false;
  std::uint64_t start_ns_;
  std::uint64_t dur_ns_ = 0;
  char detail_[kArgBytes] = {};
  char phase_[kArgBytes] = {};
  char stage_model_[kArgBytes] = {};
  char outer_stage_model_[kArgBytes] = {};  // the thread's, restored at close
};

}  // namespace deepsz::obs
