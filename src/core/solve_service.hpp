// Streaming solve service: an asynchronous admission layer that turns
// concurrent single-RHS traffic into block solves where those pay, and into
// per-request scalar solves on every worker where they do not.
//
// solve_many's block engine runs ONE SpMM and ONE fused preconditioner
// application (for DDM-GNN, one disjoint-union DSS inference across all K×s
// local problems) per iteration, and the shared search space of block
// flexible PCG converges each column in fewer iterations than solving it
// alone. That pays only when the preconditioner apply is dear next to the
// block window work; otherwise a window ties one worker up for many scalar
// solves' worth of time. Each operator therefore gets a window width at
// register_operator, min(cfg.max_batch, SolverSession::batch_width()), from
// a deterministic flop model: raw DDM-GNN batches, while ddm-lu and the
// served ddm-gnn (every subdomain on its fp32 factor) run unbatched:
//
//   core::SessionCache cache(1u << 30);
//   core::SolveService svc(cache, {.num_workers = 2, .max_batch = 16});
//   const auto op = svc.register_operator(A, cfg);      // prepared via cache
//   auto fut = svc.submit(op, std::move(rhs));          // returns immediately
//   ...
//   core::SolveService::Reply r = fut->get();           // per-RHS result
//
// Dynamic batching: each operator owns a FIFO admission queue. Workers close
// an open window — and execute it as one solve_many call — when it reaches
// min(cfg.max_batch, batch_width) columns OR when its oldest request has
// waited its window wait, whichever comes first. A width-1 queue is
// therefore due as soon as it holds a request: each one runs as one scalar
// solve on whichever worker is free, and max_wait does not apply.
// The window wait is cfg.max_wait for ordinary requests; a request carrying
// a QoS deadline shrinks it to at most half its deadline budget
// (effective_window_wait), trading batch amortization for admission latency
// exactly where a client paid for it. Futures complete individually, each
// with its own SolveResult and solution.
//
// Backpressure: queues are bounded (cfg.queue_capacity per operator). At
// capacity, submit() either blocks until space frees or rejects immediately
// (returns nullopt) — caller-selectable per submission, defaulted by the
// service config. Shutdown drains: destruction (or shutdown()) stops
// admission, flushes every queued request through the workers, and joins —
// no admitted future is ever abandoned.
//
// Instrumentation (obs::, active when the corresponding flag is on):
//   service.submitted_total / completed_total / rejected_total   counters
//   service.queue_depth                                          gauge
//   service.batch_size                                           histogram
//   service.queue_seconds   (admission → window execution start) histogram
//   service.window          span per executed window (batch/iterations args;
//                           the width is the setup span's batch_width arg)
// Always-on aggregate Stats (atomics, snapshot via stats()) back the bench
// and the tests without requiring the metrics flag.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/session_cache.hpp"

namespace ddmgnn::core {

/// What submit() does when the target operator's queue is at capacity.
enum class AdmissionPolicy {
  kBlock,   // wait until the queue has space (or the service shuts down)
  kReject,  // give up immediately; submit() returns nullopt
};

struct ServiceConfig {
  /// Worker threads executing windows. Workers are the solve parallelism
  /// axis (a window runs on one worker); independent windows — same or
  /// different operators — run concurrently, which prepared sessions
  /// support by contract.
  int num_workers = 2;
  /// A window closes when it holds this many right-hand sides (fewer for an
  /// operator whose SolverSession::batch_width() is smaller — 1 when its
  /// block solve does not pay)...
  int max_batch = 16;
  /// ...or when its oldest request has waited this long (QoS deadlines can
  /// shrink the wait per request; see effective_window_wait).
  std::chrono::microseconds max_wait{2000};
  /// Bound on queued (admitted, not yet executing) requests per operator.
  std::size_t queue_capacity = 256;
  /// Default admission policy at capacity; SubmitOptions can override.
  AdmissionPolicy on_full = AdmissionPolicy::kBlock;
};

struct SubmitOptions {
  /// QoS deadline budget for this request, measured from submit(). Zero
  /// means none. The service does not abort late solves; the deadline's
  /// effect is window formation — a deadlined request caps its window's
  /// wait at half the budget, keeping the other half for the solve.
  std::chrono::microseconds deadline{0};
  /// Per-submission override of ServiceConfig::on_full.
  std::optional<AdmissionPolicy> on_full;
  /// Warm-start guess (copied at submit; size n or empty). Re-serving a
  /// client whose operator and right-hand side drift slowly turns repeat
  /// solves into a handful of iterations.
  std::span<const double> x0;
};

/// Window-formation rule, exposed for direct testing: how long a request may
/// sit in an open window. No deadline → max_wait; a deadline caps the wait
/// at half the budget (never negative), so tight deadlines close windows
/// early — the QoS "deadline → smaller window" tradeoff.
std::chrono::microseconds effective_window_wait(
    std::chrono::microseconds max_wait, std::chrono::microseconds deadline);

class SolveService {
 public:
  /// Names one registered operator (a prepared session + its admission
  /// queue). Keys are dense indices, stable for the service lifetime.
  using OperatorKey = std::size_t;

  /// What a completed future yields: the per-RHS solve outcome, the
  /// solution, and the request's trip through the service.
  struct Reply {
    solver::SolveResult result;
    std::vector<double> x;
    /// Admission → window execution start (the batching wait).
    double queue_seconds = 0.0;
    /// Columns in the window that served this request (1 = unbatched).
    int batch_columns = 1;
    /// Completion stamp on the steady clock — set just before the future is
    /// fulfilled, so open-loop benches can measure scheduled-arrival →
    /// completion latency without coordinated omission.
    std::chrono::steady_clock::time_point completed_at;
  };

  /// Always-on aggregate counters (relaxed atomics; stats() snapshots).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    /// Executed windows and the columns they carried: columns/windows is the
    /// mean batch size, the direct evidence that window-merge happened.
    std::uint64_t windows = 0;
    std::uint64_t columns = 0;
    std::uint64_t max_window = 0;
    /// Preconditioner applications across all windows: block iterations for
    /// batched windows (one fused apply per block iteration, however many
    /// columns ride it) plus scalar iterations for singleton windows and
    /// per-column fallbacks. applies/completed is the per-solve apply cost
    /// batching amortizes.
    std::uint64_t precond_applies = 0;
  };

  /// The cache prepares and owns the sessions; it must outlive the service.
  SolveService(SessionCache& cache, ServiceConfig cfg = {});
  ~SolveService();  // shutdown(): drain admitted work, join workers
  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Prepare (or fetch, via the cache) the session for (A, cfg, opts) and
  /// return the key submit() targets. Registering an operator the cache
  /// already holds reuses its session, and re-registering a session this
  /// service already queues for returns the SAME key — concurrent clients
  /// of one operator merge into one batching queue, which is the point.
  OperatorKey register_operator(const la::CsrMatrix& A,
                                const HybridConfig& cfg,
                                const AlgebraicOptions& opts = {});
  /// Mesh-keyed form of the same.
  OperatorKey register_operator(const mesh::Mesh& m,
                                const fem::PoissonProblem& prob,
                                const HybridConfig& cfg);

  /// Enqueue one right-hand side (moved in) for `op`. Returns a future that
  /// completes when its window has been solved, or nullopt when the queue
  /// was full under AdmissionPolicy::kReject (also when the service is
  /// shutting down while a blocked submit waits). Throws ContractError for
  /// unknown keys, mis-sized rhs/x0, or submit after shutdown().
  std::optional<std::future<Reply>> submit(OperatorKey op,
                                           std::vector<double> rhs,
                                           const SubmitOptions& qos = {});

  /// Stop admitting, execute every already-admitted request, join the
  /// workers. Idempotent; called by the destructor.
  void shutdown();

  /// Suspend window formation: admitted requests queue up but no window
  /// closes until resume(). Lets tests (and maintenance windows) compose
  /// batches deterministically; pausing never rejects admission.
  void pause();
  void resume();

  Stats stats() const;
  /// Columns a window of `op` may hold: min(cfg.max_batch,
  /// session->batch_width()), fixed at register_operator.
  std::size_t batch_width(OperatorKey op) const;
  /// Queued-but-not-yet-executing requests across all operators.
  std::size_t queue_depth() const;
  const ServiceConfig& config() const { return cfg_; }

 private:
  struct Request {
    std::vector<double> rhs;
    std::vector<double> x0;  // empty = zero start
    std::promise<Reply> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// enqueued + effective_window_wait(...): the window holding this
    /// request must close by then.
    std::chrono::steady_clock::time_point close_by;
  };

  struct OperatorState {
    std::shared_ptr<SolverSession> session;
    std::deque<Request> queue;
    std::size_t width = 1;  // window cap, see batch_width()
  };

  OperatorKey key_for_session(std::shared_ptr<SolverSession> session);
  void worker_loop();
  /// Pops the ready window with the most urgent close_by under mu_;
  /// nullopt when nothing is due yet (deadline_out = when to re-check).
  std::optional<std::pair<std::size_t, std::vector<Request>>> claim_window(
      std::chrono::steady_clock::time_point now,
      std::optional<std::chrono::steady_clock::time_point>& deadline_out);
  void execute_window(OperatorState& op, std::vector<Request> batch);

  SessionCache& cache_;
  const ServiceConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: new work / shutdown
  std::condition_variable space_cv_;  // blocked submitters: space freed
  std::vector<std::unique_ptr<OperatorState>> operators_;
  bool stopping_ = false;
  bool paused_ = false;
  std::size_t queued_ = 0;  // across all operators

  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> windows_{0};
  std::atomic<std::uint64_t> columns_{0};
  std::atomic<std::uint64_t> max_window_{0};
  std::atomic<std::uint64_t> precond_applies_{0};
};

}  // namespace ddmgnn::core
