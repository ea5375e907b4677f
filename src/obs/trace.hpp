// Per-solve trace spans: RAII obs::Span writes complete events into
// per-thread buffers owned by the process-wide obs::TraceRecorder, drained on
// demand to Chrome trace_event JSON (load in about:tracing or
// https://ui.perfetto.dev). Nesting is positional — Chrome infers parent/child
// from timestamp containment on one thread track — so a Span on the stack
// inside another Span renders as its child, including spans emitted from OMP
// worker threads during a subdomain solve.
//
// Cost model: a disabled Span is one relaxed atomic load and zero clock
// reads; an enabled Span is two clock reads plus one short uncontended
// per-thread mutex hold. Event names must be string literals (or otherwise
// outlive the recorder) — events store the pointer, not a copy.
//
//   {
//     OBS_SPAN("asm.apply");          // anonymous scope span
//     ...
//   }
//   obs::Span it("pcg.iter");
//   it.arg("rel_residual", rnorm / bnorm);   // numeric args on the event
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/flags.hpp"
#include "obs/metrics.hpp"

namespace ddmgnn::obs {

struct TraceEvent {
  const char* name = nullptr;
  std::int64_t ts_ns = 0;    // start, since TraceRecorder epoch
  std::int64_t dur_ns = -1;  // < 0 ⇒ instant event
  int tid = 0;
  // Up to two optional numeric args (keys are literals, like name).
  const char* arg_key1 = nullptr;
  double arg_val1 = 0.0;
  const char* arg_key2 = nullptr;
  double arg_val2 = 0.0;
};

/// Process-wide sink for trace events. Each thread appends to its own
/// fixed-capacity buffer (drop-newest past capacity, counted in dropped());
/// snapshot/clear/write lock each buffer briefly, so draining while other
/// threads keep tracing is safe.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Nanoseconds on the steady clock since this recorder's epoch.
  std::int64_t now_ns() const;

  void record(const TraceEvent& e);

  /// All buffered events across threads (no global ordering guarantee; sort
  /// by ts_ns if you need one).
  std::vector<TraceEvent> snapshot() const;
  void clear();
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Events a single thread's buffer holds before dropping (default 1<<16).
  /// Applies to buffers created after the call.
  void set_capacity_per_thread(std::size_t n) {
    capacity_.store(n, std::memory_order_relaxed);
  }

  /// Chrome trace_event JSON ("traceEvents" array of "X"/"i" events).
  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;

 private:
  TraceRecorder();

  struct ThreadBuffer {
    mutable std::mutex mutex;
    std::vector<TraceEvent> events;
    std::size_t capacity = 0;
    int tid = 0;
  };
  ThreadBuffer& local_buffer();

  std::int64_t epoch_ns_;
  std::atomic<std::size_t> capacity_{1u << 16};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<int> next_tid_{1};
  mutable std::mutex buffers_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII complete-event span. Latches trace_enabled() at construction: zero
/// clock reads when tracing is off.
class Span {
 public:
  explicit Span(const char* name) {
    if (trace_enabled()) {
      name_ = name;
      start_ns_ = TraceRecorder::instance().now_ns();
    }
  }
  ~Span() {
    if (name_ != nullptr) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a numeric arg (first two stick; extras are dropped). `key` must
  /// be a string literal.
  void arg(const char* key, double value) {
    if (name_ == nullptr) return;
    if (arg_key1_ == nullptr) {
      arg_key1_ = key;
      arg_val1_ = value;
    } else if (arg_key2_ == nullptr) {
      arg_key2_ = key;
      arg_val2_ = value;
    }
  }

  bool active() const { return name_ != nullptr; }

 private:
  void finish();

  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
  const char* arg_key1_ = nullptr;
  double arg_val1_ = 0.0;
  const char* arg_key2_ = nullptr;
  double arg_val2_ = 0.0;
};

/// Zero-duration marker (cache hit/miss, eviction). One relaxed load when
/// tracing is off.
void instant(const char* name, const char* key = nullptr, double value = 0.0);

/// Emit an already-measured span [start_ns, start_ns + dur_ns) on the calling
/// thread's track — how the DssPhaseProfile bridge lays phase children inside
/// a dss.forward parent after the fact.
void emit_span(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
               const char* key = nullptr, double value = 0.0);

/// Times one phase into a seconds Gauge (when metrics are on) and a span
/// (when tracing is on); reads the clock only if either consumer is live.
/// The canonical instrumentation primitive for setup/apply phases:
///
///   static obs::Gauge& g = obs::Registry::instance().gauge("asm.coarse_seconds");
///   { obs::PhaseTimer t("asm.coarse", &g); coarse_->apply_add(r, z); }
class PhaseTimer {
 public:
  explicit PhaseTimer(const char* name, Gauge* gauge = nullptr) {
    if (timing_enabled()) {
      name_ = name;
      gauge_ = metrics_enabled() ? gauge : nullptr;
      tracing_ = trace_enabled();
      start_ns_ = TraceRecorder::instance().now_ns();
    }
  }
  ~PhaseTimer() {
    if (name_ != nullptr) finish();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  /// Attach one numeric arg to the span (a later call replaces it). `key`
  /// must be a string literal.
  void arg(const char* key, double value) {
    arg_key_ = key;
    arg_val_ = value;
  }

 private:
  void finish();

  const char* name_ = nullptr;
  Gauge* gauge_ = nullptr;
  bool tracing_ = false;
  std::int64_t start_ns_ = 0;
  const char* arg_key_ = nullptr;
  double arg_val_ = 0.0;
};

#define DDMGNN_OBS_CONCAT_(a, b) a##b
#define DDMGNN_OBS_CONCAT(a, b) DDMGNN_OBS_CONCAT_(a, b)
/// Anonymous scope-lifetime Span.
#define OBS_SPAN(name) \
  ::ddmgnn::obs::Span DDMGNN_OBS_CONCAT(obs_span_, __LINE__)(name)

}  // namespace ddmgnn::obs
