// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms with lock-free update paths. Registration (first lookup of a
// name) takes a mutex; the returned reference is stable for the process
// lifetime, so hot paths resolve once and update forever:
//
//   static obs::Gauge& g =
//       obs::Registry::instance().gauge("asm.restrict_seconds");
//   g.add(dt);   // one atomic RMW, no lock, no lookup
//
// Instruments may carry a label string ("precond=ddm-gnn,clients=8"); the
// full identity is "name{labels}". snapshot_json() exports everything in one
// deterministic JSON document (what bench_serving --metrics writes).
//
// Canonical metric names are documented in the README "Observability"
// section; dominant_phase() below knows the apply-phase subset ("asm.*" /
// "dss.*" *_seconds gauges) used to summarize where preconditioner time went.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ddmgnn::obs {

/// Monotonic event count. All updates are single relaxed RMWs.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Settable / accumulable double (phase seconds totals, live sizes).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double v) { v_.fetch_add(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper edges, with
/// an implicit +inf overflow bucket. observe() is lock-free (one bucket RMW
/// plus count/sum/min/max RMWs); quantile() linearly interpolates within the
/// containing bucket and clamps to the observed min/max.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;
  /// q in [0, 1]; returns 0 when empty.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// i in [0, bounds().size()]; the last index is the +inf overflow bucket.
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Seconds buckets with 8 log-spaced edges per power of two, from 2⁻¹⁷ s
/// (≈7.6µs) to 2⁷ = 128 s — the default for latency histograms (per-solve
/// serve latency, apply time). Adjacent edges differ by 2^(1/8), so a
/// quantile inside the range is off by at most 2^(1/8) − 1 ≈ 9% relative.
std::vector<double> default_latency_buckets();

class Registry {
 public:
  static Registry& instance();

  /// Find-or-create. References stay valid for the process lifetime. A name
  /// must keep one instrument kind: re-requesting it as another kind throws.
  Counter& counter(std::string_view name, std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view labels = {});
  Histogram& histogram(std::string_view name, std::string_view labels = {},
                       const std::vector<double>& bounds = {});

  /// Nullptr when the instrument was never registered (value-read helpers for
  /// tools that report deltas without forcing registration).
  const Gauge* find_gauge(std::string_view name,
                          std::string_view labels = {}) const;
  const Counter* find_counter(std::string_view name,
                              std::string_view labels = {}) const;

  /// One JSON document with counters / gauges / histograms (each histogram
  /// includes count, sum, min, max, p50/p90/p95/p99, and bucket counts),
  /// sorted by full name.
  std::string snapshot_json() const;
  void write_json(const std::string& path) const;

  /// Zero every registered instrument (registrations persist). Tests and
  /// delta-reporting tools only; concurrent updates are not lost-safe across
  /// a reset, merely race-free.
  void reset();

 private:
  Registry() = default;

  struct Entry {
    std::string full_name;  // "name" or "name{labels}"
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry* find_locked(const std::string& full_name) const;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Name of the largest apply-phase gauge ("asm.*" / "dss.*" *_seconds): the
/// one-word answer to "where did preconditioner time go". When the DSS phase
/// gauges are populated they replace their parent asm.subdomain_solve_seconds
/// in the comparison (a child can never out-rank the span that contains it).
/// Empty string when no phase gauge has fired. `seconds_out` (optional)
/// receives the winner's value.
std::string dominant_phase(double* seconds_out = nullptr);

}  // namespace ddmgnn::obs
