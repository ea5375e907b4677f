#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace ddmgnn::obs {

namespace {

std::string full_name_of(std::string_view name, std::string_view labels) {
  std::string full(name);
  if (!labels.empty()) {
    full += '{';
    full += labels;
    full += '}';
  }
  return full;
}

std::string fmt_double(double v) {
  if (!std::isfinite(v)) {
    // JSON has no Infinity/NaN literals; quote them.
    return v > 0 ? "\"inf\"" : (v < 0 ? "\"-inf\"" : "\"nan\"");
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

// Atomic fetch-min/fetch-max via CAS (atomic<double> has no built-in).
void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = default_latency_buckets();
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bucket bounds must be ascending");
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

double Histogram::min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double Histogram::max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(n);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t c = bucket_count(i);
    if (c == 0) continue;
    if (static_cast<double>(seen + c) >= rank) {
      const double lo = i == 0 ? std::min(0.0, min()) : bounds_[i - 1];
      const double hi = i < bounds_.size() ? bounds_[i] : max();
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(c);
      const double est = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      return std::clamp(est, min(), max());
    }
    seen += c;
  }
  return max();
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<double> default_latency_buckets() {
  constexpr int kPerOctave = 8;
  std::vector<double> b;
  for (int e = -17 * kPerOctave; e <= 7 * kPerOctave; ++e) {
    b.push_back(std::exp2(static_cast<double>(e) / kPerOctave));
  }
  return b;  // 2^-17, 2^(-17+1/8), ..., 2^7 seconds
}

Registry& Registry::instance() {
  static Registry* r = new Registry();  // leaked: usable from static dtors
  return *r;
}

Registry::Entry* Registry::find_locked(const std::string& full_name) const {
  for (const auto& e : entries_) {
    if (e->full_name == full_name) return e.get();
  }
  return nullptr;
}

Counter& Registry::counter(std::string_view name, std::string_view labels) {
  const std::string full = full_name_of(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* e = find_locked(full)) {
    if (!e->counter) {
      throw std::logic_error("obs: '" + full + "' is not a counter");
    }
    return *e->counter;
  }
  auto e = std::make_unique<Entry>();
  e->full_name = full;
  e->counter = std::make_unique<Counter>();
  Counter& ref = *e->counter;
  entries_.push_back(std::move(e));
  return ref;
}

Gauge& Registry::gauge(std::string_view name, std::string_view labels) {
  const std::string full = full_name_of(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* e = find_locked(full)) {
    if (!e->gauge) {
      throw std::logic_error("obs: '" + full + "' is not a gauge");
    }
    return *e->gauge;
  }
  auto e = std::make_unique<Entry>();
  e->full_name = full;
  e->gauge = std::make_unique<Gauge>();
  Gauge& ref = *e->gauge;
  entries_.push_back(std::move(e));
  return ref;
}

Histogram& Registry::histogram(std::string_view name, std::string_view labels,
                               const std::vector<double>& bounds) {
  const std::string full = full_name_of(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* e = find_locked(full)) {
    if (!e->histogram) {
      throw std::logic_error("obs: '" + full + "' is not a histogram");
    }
    return *e->histogram;
  }
  auto e = std::make_unique<Entry>();
  e->full_name = full;
  e->histogram = std::make_unique<Histogram>(bounds);
  Histogram& ref = *e->histogram;
  entries_.push_back(std::move(e));
  return ref;
}

const Gauge* Registry::find_gauge(std::string_view name,
                                  std::string_view labels) const {
  const std::string full = full_name_of(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  const Entry* e = find_locked(full);
  return e ? e->gauge.get() : nullptr;
}

const Counter* Registry::find_counter(std::string_view name,
                                      std::string_view labels) const {
  const std::string full = full_name_of(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  const Entry* e = find_locked(full);
  return e ? e->counter.get() : nullptr;
}

std::string Registry::snapshot_json() const {
  std::vector<const Entry*> sorted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sorted.reserve(entries_.size());
    for (const auto& e : entries_) sorted.push_back(e.get());
  }
  std::sort(sorted.begin(), sorted.end(), [](const Entry* a, const Entry* b) {
    return a->full_name < b->full_name;
  });

  std::string out = "{\n  \"counters\": [";
  bool first = true;
  for (const Entry* e : sorted) {
    if (!e->counter) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + e->full_name +
           "\", \"value\": " + std::to_string(e->counter->value()) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"gauges\": [";
  first = true;
  for (const Entry* e : sorted) {
    if (!e->gauge) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + e->full_name +
           "\", \"value\": " + fmt_double(e->gauge->value()) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"histograms\": [";
  first = true;
  for (const Entry* e : sorted) {
    if (!e->histogram) continue;
    const Histogram& h = *e->histogram;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + e->full_name + "\", \"count\": " +
           std::to_string(h.count()) + ", \"sum\": " + fmt_double(h.sum()) +
           ", \"min\": " + fmt_double(h.min()) +
           ", \"max\": " + fmt_double(h.max()) +
           ", \"p50\": " + fmt_double(h.quantile(0.50)) +
           ", \"p90\": " + fmt_double(h.quantile(0.90)) +
           ", \"p95\": " + fmt_double(h.quantile(0.95)) +
           ", \"p99\": " + fmt_double(h.quantile(0.99)) + ", \"buckets\": [";
    for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
      if (i > 0) out += ", ";
      const std::string le =
          i < h.bounds().size() ? fmt_double(h.bounds()[i]) : "\"inf\"";
      out += "{\"le\": " + le +
             ", \"count\": " + std::to_string(h.bucket_count(i)) + "}";
    }
    out += "]}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void Registry::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("obs: cannot write " + path);
  f << snapshot_json();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& e : entries_) {
    if (e->counter) e->counter->reset();
    if (e->gauge) e->gauge->reset();
    if (e->histogram) e->histogram->reset();
  }
}

std::string dominant_phase(double* seconds_out) {
  // Leaf apply phases: the DSS phases live inside asm.subdomain_solve, so
  // when any of them fired, the parent drops out of the comparison.
  static const char* const kDssPhases[] = {
      "dss.projection_seconds", "dss.gather_seconds", "dss.aggregate_seconds",
      "dss.update_seconds", "dss.decode_seconds"};
  static const char* const kAsmPhases[] = {
      "asm.restrict_seconds", "asm.subdomain_solve_seconds",
      "asm.coarse_seconds", "asm.prolong_seconds"};

  Registry& reg = Registry::instance();
  double dss_total = 0.0;
  for (const char* name : kDssPhases) {
    if (const Gauge* g = reg.find_gauge(name)) dss_total += g->value();
  }

  std::string best;
  double best_v = 0.0;
  auto consider = [&](const char* name) {
    const Gauge* g = reg.find_gauge(name);
    if (g && g->value() > best_v) {
      best_v = g->value();
      best = name;
    }
  };
  for (const char* name : kAsmPhases) {
    if (dss_total > 0.0 &&
        std::string_view(name) == "asm.subdomain_solve_seconds") {
      continue;
    }
    consider(name);
  }
  if (dss_total > 0.0) {
    for (const char* name : kDssPhases) consider(name);
  }
  if (seconds_out) *seconds_out = best_v;
  return best;
}

}  // namespace ddmgnn::obs
