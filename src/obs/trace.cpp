#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace ddmgnn::obs {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string fmt_us(std::int64_t ns) {
  // Chrome trace timestamps/durations are microseconds; keep ns precision as
  // a fraction.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

std::string fmt_arg(double v) {
  if (!std::isfinite(v)) return "\"non-finite\"";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

TraceRecorder::TraceRecorder() : epoch_ns_(steady_now_ns()) {}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder* r = new TraceRecorder();  // leaked, like Registry
  return *r;
}

std::int64_t TraceRecorder::now_ns() const {
  return steady_now_ns() - epoch_ns_;
}

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
  // One buffer per OS thread (OMP pool threads keep theirs across parallel
  // regions). The recorder holds a shared_ptr too, so a drain can still read
  // a buffer whose thread has exited.
  thread_local std::shared_ptr<ThreadBuffer> buf = [this] {
    auto b = std::make_shared<ThreadBuffer>();
    b->capacity = capacity_.load(std::memory_order_relaxed);
    b->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    b->events.reserve(std::min<std::size_t>(b->capacity, 1024));
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    buffers_.push_back(b);
    return b;
  }();
  return *buf;
}

void TraceRecorder::record(const TraceEvent& e) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);  // uncontended except on drain
  if (buf.events.size() >= buf.capacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent copy = e;
  copy.tid = buf.tid;
  buf.events.push_back(copy);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<std::shared_ptr<ThreadBuffer>> bufs;
  {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    bufs = buffers_;
  }
  std::vector<TraceEvent> out;
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lock(b->mutex);
    out.insert(out.end(), b->events.begin(), b->events.end());
  }
  return out;
}

void TraceRecorder::clear() {
  std::vector<std::shared_ptr<ThreadBuffer>> bufs;
  {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    bufs = buffers_;
  }
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lock(b->mutex);
    b->events.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

std::string TraceRecorder::chrome_trace_json() const {
  std::vector<TraceEvent> events = snapshot();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns;  // parents before children
            });
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (const TraceEvent& e : events) {
    out += first ? "" : ",\n";
    first = false;
    out += "  {\"name\": \"";
    out += e.name;
    out += "\", \"cat\": \"ddmgnn\", \"pid\": 1, \"tid\": " +
           std::to_string(e.tid) + ", \"ts\": " + fmt_us(e.ts_ns);
    if (e.dur_ns >= 0) {
      out += ", \"ph\": \"X\", \"dur\": " + fmt_us(e.dur_ns);
    } else {
      out += ", \"ph\": \"i\", \"s\": \"t\"";
    }
    if (e.arg_key1 != nullptr) {
      out += ", \"args\": {\"";
      out += e.arg_key1;
      out += "\": " + fmt_arg(e.arg_val1);
      if (e.arg_key2 != nullptr) {
        out += ", \"";
        out += e.arg_key2;
        out += "\": " + fmt_arg(e.arg_val2);
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped\": " +
         std::to_string(dropped()) + "}}\n";
  return out;
}

void TraceRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("obs: cannot write " + path);
  f << chrome_trace_json();
}

void Span::finish() {
  TraceRecorder& rec = TraceRecorder::instance();
  TraceEvent e;
  e.name = name_;
  e.ts_ns = start_ns_;
  e.dur_ns = rec.now_ns() - start_ns_;
  e.arg_key1 = arg_key1_;
  e.arg_val1 = arg_val1_;
  e.arg_key2 = arg_key2_;
  e.arg_val2 = arg_val2_;
  rec.record(e);
}

void instant(const char* name, const char* key, double value) {
  if (!trace_enabled()) return;
  TraceRecorder& rec = TraceRecorder::instance();
  TraceEvent e;
  e.name = name;
  e.ts_ns = rec.now_ns();
  e.dur_ns = -1;
  e.arg_key1 = key;
  e.arg_val1 = value;
  rec.record(e);
}

void emit_span(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
               const char* key, double value) {
  if (!trace_enabled()) return;
  TraceEvent e;
  e.name = name;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns < 0 ? 0 : dur_ns;
  e.arg_key1 = key;
  e.arg_val1 = value;
  TraceRecorder::instance().record(e);
}

void PhaseTimer::finish() {
  TraceRecorder& rec = TraceRecorder::instance();
  const std::int64_t end_ns = rec.now_ns();
  if (gauge_ != nullptr) {
    gauge_->add(static_cast<double>(end_ns - start_ns_) * 1e-9);
  }
  if (tracing_) {
    TraceEvent e;
    e.name = name_;
    e.ts_ns = start_ns_;
    e.dur_ns = end_ns - start_ns_;
    e.arg_key1 = arg_key_;
    e.arg_val1 = arg_val_;
    rec.record(e);
  }
}

}  // namespace ddmgnn::obs
