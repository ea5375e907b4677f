#include "core/solve_service.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/flags.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ddmgnn::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Registry instruments, resolved once (references are process-stable).
struct ServiceMetrics {
  obs::Counter& submitted;
  obs::Counter& completed;
  obs::Counter& rejected;
  obs::Gauge& queue_depth;
  obs::Histogram& batch_size;
  obs::Histogram& queue_seconds;

  static ServiceMetrics& instance() {
    static auto& reg = obs::Registry::instance();
    static ServiceMetrics m{
        reg.counter("service.submitted_total"),
        reg.counter("service.completed_total"),
        reg.counter("service.rejected_total"),
        reg.gauge("service.queue_depth"),
        reg.histogram("service.batch_size", {},
                      {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}),
        reg.histogram("service.queue_seconds", {},
                      obs::default_latency_buckets()),
    };
    return m;
  }
};

}  // namespace

std::chrono::microseconds effective_window_wait(
    std::chrono::microseconds max_wait, std::chrono::microseconds deadline) {
  if (deadline.count() <= 0) return max_wait;
  // Keep half the budget for the solve itself; a sub-max_wait deadline
  // therefore closes the window early (possibly immediately).
  return std::min(max_wait, deadline / 2);
}

SolveService::SolveService(SessionCache& cache, ServiceConfig cfg)
    : cache_(cache), cfg_(cfg) {
  DDMGNN_CHECK(cfg_.num_workers >= 1, "SolveService: num_workers must be >= 1");
  DDMGNN_CHECK(cfg_.max_batch >= 1, "SolveService: max_batch must be >= 1");
  DDMGNN_CHECK(cfg_.queue_capacity >= 1,
               "SolveService: queue_capacity must be >= 1");
  workers_.reserve(static_cast<std::size_t>(cfg_.num_workers));
  for (int i = 0; i < cfg_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SolveService::~SolveService() { shutdown(); }

SolveService::OperatorKey SolveService::key_for_session(
    std::shared_ptr<SolverSession> session) {
  std::lock_guard<std::mutex> lock(mu_);
  DDMGNN_CHECK(!stopping_, "SolveService::register_operator after shutdown()");
  for (std::size_t k = 0; k < operators_.size(); ++k) {
    if (operators_[k]->session.get() == session.get()) return k;
  }
  auto op = std::make_unique<OperatorState>();
  op->width = static_cast<std::size_t>(
      std::min(cfg_.max_batch, session->batch_width()));
  op->session = std::move(session);
  operators_.push_back(std::move(op));
  return operators_.size() - 1;
}

SolveService::OperatorKey SolveService::register_operator(
    const la::CsrMatrix& A, const HybridConfig& cfg,
    const AlgebraicOptions& opts) {
  return key_for_session(cache_.get_or_setup(A, cfg, opts));
}

SolveService::OperatorKey SolveService::register_operator(
    const mesh::Mesh& m, const fem::PoissonProblem& prob,
    const HybridConfig& cfg) {
  return key_for_session(cache_.get_or_setup(m, prob, cfg));
}

std::optional<std::future<SolveService::Reply>> SolveService::submit(
    OperatorKey op, std::vector<double> rhs, const SubmitOptions& qos) {
  const auto now = Clock::now();
  Request req;
  req.rhs = std::move(rhs);
  if (!qos.x0.empty()) req.x0.assign(qos.x0.begin(), qos.x0.end());
  req.enqueued = now;
  req.close_by = now + effective_window_wait(cfg_.max_wait, qos.deadline);
  std::future<Reply> fut = req.promise.get_future();

  const AdmissionPolicy policy = qos.on_full.value_or(cfg_.on_full);
  {
    std::unique_lock<std::mutex> lock(mu_);
    DDMGNN_CHECK(!stopping_, "SolveService::submit after shutdown()");
    DDMGNN_CHECK(op < operators_.size(),
                 "SolveService::submit: unknown operator key " +
                     std::to_string(op));
    OperatorState& state = *operators_[op];
    const auto n = static_cast<std::size_t>(state.session->rows());
    DDMGNN_CHECK(req.rhs.size() == n,
                 "SolveService::submit: rhs size does not match the operator");
    DDMGNN_CHECK(req.x0.empty() || req.x0.size() == n,
                 "SolveService::submit: x0 size does not match the operator");
    if (state.queue.size() >= cfg_.queue_capacity) {
      if (policy == AdmissionPolicy::kReject) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        if (obs::metrics_enabled()) {
          ServiceMetrics::instance().rejected.inc();
        }
        obs::instant("service.reject");
        return std::nullopt;
      }
      space_cv_.wait(lock, [&] {
        return stopping_ || state.queue.size() < cfg_.queue_capacity;
      });
      if (stopping_) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
    }
    state.queue.push_back(std::move(req));
    ++queued_;
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (obs::metrics_enabled()) {
      auto& m = ServiceMetrics::instance();
      m.submitted.inc();
      m.queue_depth.set(static_cast<double>(queued_));
    }
  }
  work_cv_.notify_one();
  return fut;
}

std::optional<std::pair<std::size_t, std::vector<SolveService::Request>>>
SolveService::claim_window(
    Clock::time_point now,
    std::optional<Clock::time_point>& deadline_out) {
  // Scan for the due window whose oldest request is most urgent; while
  // scanning, remember the earliest future close_by so the caller knows when
  // to wake again. A queue is "due" when it reached its operator's window
  // width (so a width-1 queue is due as soon as it holds a request), when
  // its oldest request's window wait expired, or when the service is
  // draining.
  std::size_t best = operators_.size();
  Clock::time_point best_close{};
  for (std::size_t k = 0; k < operators_.size(); ++k) {
    const auto& q = operators_[k]->queue;
    if (q.empty()) continue;
    const Clock::time_point close = q.front().close_by;
    const bool due =
        stopping_ || q.size() >= operators_[k]->width || close <= now;
    if (due) {
      if (best == operators_.size() || close < best_close) {
        best = k;
        best_close = close;
      }
    } else if (!deadline_out || close < *deadline_out) {
      deadline_out = close;
    }
  }
  if (best == operators_.size()) return std::nullopt;
  OperatorState& op = *operators_[best];
  const std::size_t take = std::min(op.queue.size(), op.width);
  std::vector<Request> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(op.queue.front()));
    op.queue.pop_front();
  }
  queued_ -= take;
  if (obs::metrics_enabled()) {
    ServiceMetrics::instance().queue_depth.set(static_cast<double>(queued_));
  }
  return std::make_pair(best, std::move(batch));
}

void SolveService::execute_window(OperatorState& op,
                                  std::vector<Request> batch) {
  const auto exec_start = Clock::now();
  const std::size_t s = batch.size();
  windows_.fetch_add(1, std::memory_order_relaxed);
  columns_.fetch_add(s, std::memory_order_relaxed);
  std::uint64_t seen = max_window_.load(std::memory_order_relaxed);
  while (s > seen &&
         !max_window_.compare_exchange_weak(seen, s,
                                            std::memory_order_relaxed)) {
  }
  const bool metrics = obs::metrics_enabled();
  if (metrics) {
    auto& m = ServiceMetrics::instance();
    m.batch_size.observe(static_cast<double>(s));
    for (const Request& r : batch) {
      m.queue_seconds.observe(seconds_between(r.enqueued, exec_start));
    }
  }
  obs::Span window_span("service.window");
  window_span.arg("batch", static_cast<double>(s));

  std::vector<solver::SolveResult> results;
  std::vector<std::vector<double>> xs;
  try {
    if (s == 1) {
      xs.resize(1);
      xs[0].assign(batch[0].rhs.size(), 0.0);
      results.push_back(
          op.session->solve(batch[0].rhs, xs[0], batch[0].x0));
    } else {
      std::vector<std::vector<double>> bs;
      std::vector<std::vector<double>> x0s;
      bs.reserve(s);
      x0s.reserve(s);
      bool any_seed = false;
      for (Request& r : batch) {
        any_seed = any_seed || !r.x0.empty();
        bs.push_back(std::move(r.rhs));
        x0s.push_back(std::move(r.x0));
      }
      results = op.session->solve_many(
          bs, xs,
          any_seed ? std::span<const std::vector<double>>(x0s)
                   : std::span<const std::vector<double>>{});
    }
  } catch (...) {
    // A failed window fails each of its requests individually; the service
    // itself stays up (the next window is independent work).
    const auto err = std::current_exception();
    for (Request& r : batch) r.promise.set_exception(err);
    return;
  }

  // Preconditioner-apply accounting: a batched window pays one fused apply
  // per BLOCK iteration — the max over its columns' iteration counts (a
  // column's `iterations` is the block iteration at which it converged; any
  // scalar-fallback iterations are folded into that column's count, so max
  // remains the honest total). A singleton window pays one apply per scalar
  // iteration.
  std::uint64_t applies = 0;
  for (const auto& res : results) {
    applies = std::max(applies, static_cast<std::uint64_t>(res.iterations));
  }
  precond_applies_.fetch_add(applies, std::memory_order_relaxed);
  window_span.arg("iterations", static_cast<double>(applies));

  const auto done = Clock::now();
  // Count completions BEFORE fulfilling any promise: a client that harvests
  // its future and immediately reads stats() must see itself counted.
  completed_.fetch_add(s, std::memory_order_relaxed);
  if (metrics) ServiceMetrics::instance().completed.inc(s);
  for (std::size_t i = 0; i < s; ++i) {
    Reply reply;
    reply.result = std::move(results[i]);
    reply.x = std::move(xs[i]);
    reply.queue_seconds = seconds_between(batch[i].enqueued, exec_start);
    reply.batch_columns = static_cast<int>(s);
    reply.completed_at = done;
    batch[i].promise.set_value(std::move(reply));
  }
}

void SolveService::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    std::optional<Clock::time_point> next_close;
    std::optional<std::pair<std::size_t, std::vector<Request>>> window;
    if (!paused_ || stopping_) {
      window = claim_window(Clock::now(), next_close);
    }
    if (window) {
      OperatorState& op = *operators_[window->first];
      lock.unlock();
      // Freed queue space: wake one blocked submitter per popped request.
      space_cv_.notify_all();
      execute_window(op, std::move(window->second));
      lock.lock();
      continue;
    }
    if (stopping_ && queued_ == 0) return;
    if (next_close && !paused_) {
      work_cv_.wait_until(lock, *next_close);
    } else {
      work_cv_.wait(lock);
    }
  }
}

void SolveService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
    paused_ = false;  // drain overrides pause
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void SolveService::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void SolveService::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

SolveService::Stats SolveService::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.windows = windows_.load(std::memory_order_relaxed);
  s.columns = columns_.load(std::memory_order_relaxed);
  s.max_window = max_window_.load(std::memory_order_relaxed);
  s.precond_applies = precond_applies_.load(std::memory_order_relaxed);
  return s;
}

std::size_t SolveService::batch_width(OperatorKey op) const {
  std::lock_guard<std::mutex> lock(mu_);
  DDMGNN_CHECK(op < operators_.size(),
               "SolveService::batch_width: unknown operator key " +
                   std::to_string(op));
  return operators_[op]->width;
}

std::size_t SolveService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

}  // namespace ddmgnn::core
