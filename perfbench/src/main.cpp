// perfbench: the repository's benchmark. One binary runs one
// workload for a fixed time and prints, as its last stdout line, the result
// object {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1.
//
//   perfbench train
//       train the pinned DSS model (or load it from the cache) and print its
//       weight hash
//   perfbench run --workload NAME --seed N --seconds T --trace 0|1
//
// DDMGNN_ARTIFACT_DIR names the model cache directory; perfbench/run.py
// builds this binary, trains the model once and then calls `run`.
//
// Per-layer numbers come from calls into each layer's public functions made
// here: a timing wrapper around the session's preconditioner, replays of
// SpMV / SpMM / Krylov vector kernels, the program's existing obs gauges and
// trace spans switched on through the public obs flags, and SolveService
// replies. Nothing under src/ is instrumented for the benchmark.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/gnn_subdomain_solver.hpp"
#include "core/session_cache.hpp"
#include "gnn/model_io.hpp"
#include "harness.hpp"
#include "obs/trace.hpp"
#include "precond/asm_precond.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("usage: perfbench train|run ...");
  a.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double gauge(const char* name) {
  return obs::Registry::instance().gauge(name).value();
}

/// Values of a set of obs gauges, so a phase can report its deltas: from
/// construction to stop(), or to now while not stopped.
struct GaugeSet {
  std::vector<const char*> names;
  std::vector<double> at_start;
  std::vector<double> at_stop;
  explicit GaugeSet(std::vector<const char*> ns) : names(std::move(ns)) {
    for (const char* n : names) at_start.push_back(gauge(n));
  }
  void stop() {
    at_stop.clear();
    for (const char* n : names) at_stop.push_back(gauge(n));
  }
  double delta(const char* name) const {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (std::strcmp(names[i], name) == 0) {
        return (at_stop.empty() ? gauge(name) : at_stop[i]) - at_start[i];
      }
    }
    throw std::logic_error(std::string("gauge not tracked: ") + name);
  }
};

const std::vector<const char*> kSetupGauges = {
    "setup.decomposition_seconds", "setup.coarse_space_seconds",
    "setup.local_solver_seconds"};
const std::vector<const char*> kApplyGauges = {
    "asm.restrict_seconds",   "asm.prolong_seconds",
    "asm.subdomain_solve_seconds", "asm.coarse_seconds",
    "dss.projection_seconds", "dss.gather_seconds",
    "dss.aggregate_seconds",  "dss.update_seconds",
    "dss.decode_seconds"};

// ---------------------------------------------------------------- setup --

/// Fresh SolverSession::setup calls on the workload's operator. Half of a
/// run's calls come before its measured phase and half after, so a slow
/// stretch on a shared machine does not set the whole median.
class SetupSampler {
 public:
  SetupSampler(const bench::Problem& p, const core::HybridConfig& cfg,
               bool phases)
      : p_(p), cfg_(cfg), phases_(phases) {}

  /// `reps` setups; the last prepared session is moved into `keep` if given.
  void sample(int reps, core::SolverSession* keep = nullptr) {
    obs::set_metrics_enabled(phases_);
    for (int rep = 0; rep < reps; ++rep) {
      core::SolverSession session;
      const GaugeSet g(kSetupGauges);
      const auto t0 = Clock::now();
      session.setup(p_.m, p_.prob, cfg_);
      total_.push_back(seconds_between(t0, Clock::now()));
      decomposition_.push_back(g.delta("setup.decomposition_seconds"));
      coarse_.push_back(g.delta("setup.coarse_space_seconds"));
      local_.push_back(g.delta("setup.local_solver_seconds"));
      if (keep != nullptr && rep + 1 == reps) *keep = std::move(session);
    }
    obs::set_metrics_enabled(false);
  }

  double median_s() const { return median(total_); }
  // Medians of the program's setup-phase gauges (filled in traced runs).
  double decomposition_s() const { return median(decomposition_); }
  double coarse_space_s() const { return median(coarse_); }
  double local_solver_s() const { return median(local_); }

 private:
  const bench::Problem& p_;
  const core::HybridConfig& cfg_;
  bool phases_;
  std::vector<double> total_, decomposition_, coarse_, local_;
};

// -------------------------------------------------------- shared counts --

struct Outcome {
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  double true_residual_max = 0.0;
  std::vector<double> iterations;

  void add(const std::vector<Sample>& samples) {
    for (const Sample& s : samples) {
      ++attempted;
      if (!s.verified) ++failed;
      if (s.silent_wrong) correct = false;
      true_residual_max = std::max(true_residual_max, s.true_residual);
      iterations.push_back(s.iterations);
    }
  }
};

std::vector<double> solve_ms(const std::vector<Sample>& xs) {
  std::vector<double> v;
  for (const Sample& s : xs) v.push_back(s.verified ? s.solve_s * 1e3 : kInf);
  return v;
}

std::vector<double> latency_ms(const std::vector<Sample>& xs) {
  std::vector<double> v;
  for (const Sample& s : xs) v.push_back(s.verified ? s.latency_s * 1e3 : kInf);
  return v;
}

long verified_count(const std::vector<Sample>& xs) {
  long n = 0;
  for (const Sample& s : xs) n += s.verified ? 1 : 0;
  return n;
}

void add_end_to_end(Metrics& m, double setup_s, const std::vector<Sample>& xs,
                    double wall_s, double rss_mb) {
  m.add("setup_s", setup_s, "s");
  m.add("solve_ms_p50", quantile(solve_ms(xs), 0.50), "ms");
  m.add("solves_per_s", static_cast<double>(verified_count(xs)) / wall_s,
        "1/s");
  m.add("latency_ms_p50", quantile(latency_ms(xs), 0.50), "ms");
  m.add("peak_rss_mb", rss_mb, "MB");
}

/// Per-layer metrics every workload reports the same way: setup phases,
/// session size and the outcome of every checked answer.
void add_common_layers(Metrics& m, const SetupSampler& setup,
                       const core::SolverSession& session, const Outcome& o) {
  m.add("setup.decomposition_s", setup.decomposition_s(), "s");
  m.add("setup.coarse_space_s", setup.coarse_space_s(), "s");
  m.add("setup.local_solver_s", setup.local_solver_s(), "s");
  m.add("core.session_bytes", static_cast<double>(session.memory_bytes()),
        "bytes");
  m.add("solver.iterations_p50", quantile(o.iterations, 0.5), "count");
  m.add("solver.iterations_max", quantile(o.iterations, 1.0), "count");
  m.add("solver.true_residual_max", o.true_residual_max, "1");
  m.add("failed_frac",
        o.attempted > 0 ? static_cast<double>(o.failed) / o.attempted : 0.0,
        "frac");
}

/// The traced run's own figures: tail times of its untraced half (too few
/// samples per run to gate on; see NOTES.md), the tracing overhead, and how
/// much of the measured time the layers account for.
void add_bench_layers(Metrics& m, const std::vector<Sample>& plain,
                      double plain_wall_s, const std::vector<Sample>& traced,
                      double traced_wall_s, double coverage) {
  m.add("bench.solve_ms_p90", quantile(solve_ms(plain), 0.90), "ms");
  m.add("bench.latency_ms_p99", quantile(latency_ms(plain), 0.99), "ms");
  const double plain_rate = verified_count(plain) / plain_wall_s;
  const double traced_rate = verified_count(traced) / traced_wall_s;
  m.add("bench.trace_overhead_frac",
        plain_rate > 0 ? 1.0 - traced_rate / plain_rate : 0.0, "frac");
  m.add("bench.layer_coverage_frac", coverage, "frac");
}

/// Where the solves went, with the sample count and the tail times that are
/// reported but not gated on.
void print_run_info(const Workload& w, const std::string& method,
                    const core::SolverSession& session, const la::CsrMatrix& a,
                    const std::vector<Sample>& xs, double late_max_s) {
  std::printf(
      "{\"info\": \"run\", \"workload\": \"%s\", \"solve_method\": \"%s\", "
      "\"K\": %d, \"n\": %d, \"nnz\": %lld, \"samples\": %zu, "
      "\"solve_ms_p90\": %.6g, \"latency_ms_p99\": %.6g, "
      "\"generator_late_ms_max\": %.6g}\n",
      w.name.c_str(), method.c_str(),
      static_cast<int>(session.num_subdomains()), static_cast<int>(a.rows()),
      static_cast<long long>(a.nnz()), xs.size(),
      quantile(solve_ms(xs), 0.90), quantile(latency_ms(xs), 0.99),
      late_max_s * 1e3);
}

/// Subdomains served by GNN inference (not routed to the exact fallback)
/// over K, and the nominal DSS flops of one preconditioner apply.
struct GnnShape {
  double served_share = 0.0;
  double flops_per_apply = 0.0;
};

GnnShape gnn_shape(const core::SolverSession& session,
                   const gnn::DssModel* model) {
  GnnShape out;
  const auto* schwarz =
      dynamic_cast<const precond::AdditiveSchwarz*>(&session.preconditioner());
  if (schwarz == nullptr || model == nullptr) return out;
  const auto* local =
      dynamic_cast<const core::GnnSubdomainSolver*>(&schwarz->local_solver());
  if (local == nullptr) return out;
  const auto& topos = local->topologies();
  const auto& steps = local->refinement_schedule();
  const double k = static_cast<double>(topos.size());
  out.served_share = k > 0 ? (k - local->fallback_count()) / k : 0.0;
  // The public API does not say which subdomains fall back, so the
  // all-subdomain flop count is scaled by served_share; exact when all or
  // none are served.
  for (std::size_t i = 0; i < topos.size(); ++i) {
    const int passes = 1 + (steps.empty() ? 0 : steps[i]);
    out.flops_per_apply += passes * dss_forward_flops(model->config(),
                                                      topos[i]->n,
                                                      topos[i]->num_edges());
  }
  out.flops_per_apply *= out.served_share;
  return out;
}

/// The per-apply breakdown inside the preconditioner, from the program's
/// asm.* / dss.* gauges over a traced phase with `applies` applications.
void add_apply_breakdown(Metrics& m, const GaugeSet& g, double applies,
                         const GnnShape& shape) {
  const double per = applies > 0 ? 1e3 / applies : 0.0;
  m.add("precond.subdomain_solve_ms",
        g.delta("asm.subdomain_solve_seconds") * per, "ms");
  m.add("precond.restrict_prolong_ms",
        (g.delta("asm.restrict_seconds") + g.delta("asm.prolong_seconds")) *
            per,
        "ms");
  m.add("partition.coarse_ms", g.delta("asm.coarse_seconds") * per, "ms");
  double dss_total = 0.0;
  for (const auto& [metric, gauge_name] :
       std::vector<std::pair<const char*, const char*>>{
           {"gnn.projection_ms", "dss.projection_seconds"},
           {"gnn.gather_ms", "dss.gather_seconds"},
           {"gnn.aggregate_ms", "dss.aggregate_seconds"},
           {"gnn.update_ms", "dss.update_seconds"},
           {"gnn.decode_ms", "dss.decode_seconds"}}) {
    m.add(metric, g.delta(gauge_name) * per, "ms");
    dss_total += g.delta(gauge_name);
  }
  // Nominal DSS flops over the wall time of the subdomain-solve phase (the
  // dss.* gauges sum thread time across subdomains inferred in parallel).
  const double solve_wall = g.delta("asm.subdomain_solve_seconds");
  m.add("gnn.gflops_computed",
        dss_total > 0 && solve_wall > 0
            ? shape.flops_per_apply * applies / solve_wall / 1e9
            : 0.0,
        "GFLOP/s");
  m.add("gnn.served_share", shape.served_share, "frac");
}

void print_result(const Outcome& o, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              o.correct ? "true" : "false", o.attempted, o.failed,
              m.json().c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------ direct workloads --

struct DirectRun {
  std::vector<Sample> samples;
  double wall_s = 0.0;
  std::string method;
  // Timed-path extras.
  std::vector<double> apply_s;
  double solve_total_s = 0.0;
  long iterations = 0;
};

/// One closed-loop client: solve a fresh seeded RHS, check the answer, next.
/// Runs until `seconds` have passed and at least `min_solves` are done. The
/// timed path calls solver::run_krylov with a TimedPreconditioner around the
/// session's preconditioner and the options SolverSession::solve builds.
DirectRun run_direct(const core::SolverSession& session,
                     const la::CsrMatrix& a, const core::HybridConfig& cfg,
                     std::uint64_t seed, std::uint64_t first_index,
                     double seconds, int min_solves, bool timed_path) {
  DirectRun run;
  const std::size_t n = a.rows();
  const TimedPreconditioner timed(session.preconditioner());
  solver::SolveOptions opts;
  opts.rel_tol = cfg.rel_tol;
  opts.max_iterations = cfg.max_iterations;
  opts.track_history = cfg.track_history;
  opts.gmres_restart = cfg.gmres_restart;
  opts.precond_fp32 = cfg.precond_fp32;
  std::vector<double> x(n);
  const auto start = Clock::now();
  for (std::uint64_t i = first_index;
       seconds_between(start, Clock::now()) < seconds ||
       static_cast<int>(run.samples.size()) < min_solves;
       ++i) {
    const std::vector<double> b = make_rhs(seed, i, n);
    std::fill(x.begin(), x.end(), 0.0);
    Sample s;
    const auto t0 = Clock::now();
    try {
      const solver::SolveResult res =
          timed_path
              ? solver::run_krylov(session.method(), a, timed, b, x, opts)
              : session.solve(b, x);
      const auto t1 = Clock::now();
      check_answer(a, b, x, res, cfg.rel_tol, s);
      s.solve_s = seconds_between(t0, t1);
      s.latency_s = seconds_between(t0, Clock::now());
      run.method = res.method;
      run.solve_total_s += s.solve_s;
      run.iterations += res.iterations;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "solve %llu threw: %s\n",
                   static_cast<unsigned long long>(i), e.what());
    }
    run.samples.push_back(s);
  }
  run.wall_s = seconds_between(start, Clock::now());
  run.apply_s = timed.apply_seconds();
  return run;
}

void run_direct_workload(const Workload& w, const Args& args,
                         const bench::Problem& p, const core::HybridConfig& cfg,
                         const gnn::DssModel* model) {
  core::SolverSession session;
  SetupSampler setup(p, cfg, args.trace);
  setup.sample(w.setup_reps / 2, &session);
  const la::CsrMatrix& a = p.prob.A;
  // Warm-up solve (caches, lazily sized workspaces); not measured.
  (void)run_direct(session, a, cfg, args.seed, 1u << 30, 0.0, 1, false);

  // A traced run spends half its time untraced (the overhead reference and
  // the tail times) and half traced.
  const DirectRun plain = run_direct(
      session, a, cfg, args.seed, 0,
      args.trace ? args.seconds / 2 : args.seconds,
      args.trace ? std::max(2, w.min_solves / 2) : w.min_solves, false);
  Outcome outcome;
  outcome.add(plain.samples);
  std::string method = plain.method;
  Metrics m;
  if (!args.trace) {
    const double rss_mb = peak_rss_mb();  // before the closing setups
    setup.sample(w.setup_reps - w.setup_reps / 2);
    add_end_to_end(m, setup.median_s(), plain.samples, plain.wall_s, rss_mb);
  } else {
    obs::set_metrics_enabled(true);
    GaugeSet g(kApplyGauges);
    const DirectRun traced =
        run_direct(session, a, cfg, args.seed, plain.samples.size(),
                   args.seconds / 2, std::max(2, w.min_solves / 2), true);
    g.stop();
    obs::set_metrics_enabled(false);
    outcome.add(traced.samples);
    method = traced.method;

    const IterationReplay replay = replay_iteration(
        a, session.preconditioner(), session.method(), 100);
    const double applies = static_cast<double>(traced.apply_s.size());
    double precond_total = 0.0;
    for (const double t : traced.apply_s) precond_total += t;
    const double solves = static_cast<double>(traced.samples.size());
    const double iters = static_cast<double>(traced.iterations);
    const double spmvs = iters + solves;  // r0 = b - A x0, then one per iter

    setup.sample(w.setup_reps - w.setup_reps / 2);
    add_common_layers(m, setup, session, outcome);
    m.add("solver.self_ms_per_iter",
          iters > 0 ? (traced.solve_total_s - precond_total -
                       spmvs * replay.spmv_mean_s) /
                          iters * 1e3
                    : 0.0,
          "ms");
    m.add("block.self_ms_per_iter", 0.0, "ms");
    m.add("la.spmv_ms", replay.spmv_median_s * 1e3, "ms");
    m.add("la.spmv_gbs_computed", spmv_bytes(a) / replay.spmv_median_s / 1e9,
          "GB/s");
    m.add("la.spmm_ms_per_col", 0.0, "ms");
    m.add("precond.apply_ms_p50", median(traced.apply_s) * 1e3, "ms");
    m.add("precond.applies_per_solve", solves > 0 ? applies / solves : 0.0,
          "count");
    m.add("precond.share",
          traced.solve_total_s > 0 ? precond_total / traced.solve_total_s : 0.0,
          "frac");
    add_apply_breakdown(m, g, applies, gnn_shape(session, model));
    for (const char* name :
         {"service.queue_wait_ms_p50", "service.queue_wait_ms_p99",
          "service.exec_ms_p50"}) {
      m.add(name, 0.0, "ms");
    }
    m.add("service.batch_cols_mean", 0.0, "count");
    m.add("service.applies_per_solve", 0.0, "count");
    // Independently timed layers over the measured solve wall time.
    add_bench_layers(m, plain.samples, plain.wall_s, traced.samples,
                     traced.wall_s,
                     traced.solve_total_s > 0
                         ? (precond_total + spmvs * replay.spmv_mean_s +
                            iters * replay.vecops_mean_s) /
                               traced.solve_total_s
                         : 0.0);
  }
  print_run_info(w, method, session, a, plain.samples, 0.0);
  print_result(outcome, m);
}

// ----------------------------------------------------- service workloads --

struct ServiceRun {
  std::vector<Sample> samples;
  std::vector<double> queue_s;   // Reply::queue_seconds
  std::vector<double> from_submit_s;  // submit() call -> completion
  std::vector<double> late_s;    // open loop: submit time - due time
  double wall_s = 0.0;
  core::SolveService::Stats stats;  // completed/windows/columns/applies deltas
  std::string method;
};

core::SolveService::Stats stats_delta(const core::SolveService::Stats& a,
                                      const core::SolveService::Stats& b) {
  core::SolveService::Stats d;
  d.completed = b.completed - a.completed;
  d.windows = b.windows - a.windows;
  d.columns = b.columns - a.columns;
  d.precond_applies = b.precond_applies - a.precond_applies;
  return d;
}

struct Pending {
  std::optional<std::future<core::SolveService::Reply>> future;
  std::uint64_t index = 0;
  Clock::time_point due;        // scheduled arrival (open) or submit (closed)
  Clock::time_point submitted;  // when submit() was called
};

/// Harvest one request: wait for its reply, check the answer from outside.
void harvest(Pending& p, const la::CsrMatrix& a, double rel_tol,
             std::uint64_t seed, ServiceRun& run,
             Clock::time_point& last_done) {
  Sample s;
  if (p.future) {
    try {
      core::SolveService::Reply r = p.future->get();
      const std::vector<double> b = make_rhs(seed, p.index, a.rows());
      check_answer(a, b, r.x, r.result, rel_tol, s);
      const double from_submit = seconds_between(p.submitted, r.completed_at);
      s.solve_s = from_submit - r.queue_seconds;
      s.latency_s = seconds_between(p.due, r.completed_at);
      run.queue_s.push_back(r.queue_seconds);
      run.from_submit_s.push_back(from_submit);
      run.method = r.result.method;
      last_done = std::max(last_done, r.completed_at);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "request %llu failed: %s\n",
                   static_cast<unsigned long long>(p.index), e.what());
    }
  }
  run.samples.push_back(s);
}

Pending submit(core::SolveService& svc, core::SolveService::OperatorKey op,
               std::size_t n, std::uint64_t seed, std::uint64_t index,
               Clock::time_point due) {
  Pending p;
  p.index = index;
  p.due = due;
  std::vector<double> b = make_rhs(seed, index, n);
  p.submitted = Clock::now();
  p.future = svc.submit(op, std::move(b));  // nullopt = rejected
  return p;
}

/// Closed loop: one generator keeps `in_flight` requests outstanding for
/// `seconds`, then drains.
ServiceRun run_closed(core::SolveService& svc,
                      core::SolveService::OperatorKey op,
                      const la::CsrMatrix& a, const Workload& w,
                      std::uint64_t seed, std::uint64_t first_index,
                      double seconds) {
  ServiceRun run;
  const auto before = svc.stats();
  std::deque<Pending> inflight;
  std::uint64_t next = first_index;
  const auto start = Clock::now();
  Clock::time_point last_done = start;
  for (int k = 0; k < w.in_flight; ++k) {
    const auto now = Clock::now();
    inflight.push_back(submit(svc, op, a.rows(), seed, next++, now));
  }
  while (!inflight.empty()) {
    Pending p = std::move(inflight.front());
    inflight.pop_front();
    harvest(p, a, w.cfg.rel_tol, seed, run, last_done);
    if (seconds_between(start, Clock::now()) < seconds) {
      const auto now = Clock::now();
      inflight.push_back(submit(svc, op, a.rows(), seed, next++, now));
    }
  }
  run.wall_s = seconds_between(start, last_done);
  run.stats = stats_delta(before, svc.stats());
  return run;
}

/// Arrival times of a Poisson process at `rate` conditioned on exactly
/// round(rate * seconds) arrivals in [0, seconds): sorted iid uniform times.
/// The offered load is then the same in every run; only where the bursts
/// fall depends on the seed.
std::vector<double> poisson_arrivals_exact(double rate, double seconds,
                                           std::uint64_t seed,
                                           std::uint64_t salt) {
  const auto count =
      std::max<long>(1, std::lround(rate * seconds));
  Rng rng(seed * 0x94D049BB133111EBull + salt + 17);
  std::vector<double> at(static_cast<std::size_t>(count));
  for (double& t : at) t = rng.uniform(0.0, seconds);
  std::sort(at.begin(), at.end());
  return at;
}

/// Open loop: seeded Poisson arrivals at the workload's fixed rate for
/// `seconds`; each request's latency runs from when it was due.
ServiceRun run_open(core::SolveService& svc,
                    core::SolveService::OperatorKey op,
                    const la::CsrMatrix& a, const Workload& w,
                    std::uint64_t seed, std::uint64_t first_index,
                    double seconds) {
  ServiceRun run;
  const auto before = svc.stats();
  const std::vector<double> arrivals =
      poisson_arrivals_exact(w.rate_per_s, seconds, seed, first_index);
  std::vector<Pending> pending;
  pending.reserve(arrivals.size());
  const auto start = Clock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(arrivals[i]));
    std::this_thread::sleep_until(due);
    pending.push_back(submit(svc, op, a.rows(), seed, first_index + i, due));
    run.late_s.push_back(seconds_between(due, pending.back().submitted));
  }
  Clock::time_point last_done = start;
  for (Pending& p : pending) harvest(p, a, w.cfg.rel_tol, seed, run, last_done);
  run.wall_s = seconds_between(start, last_done);
  run.stats = stats_delta(before, svc.stats());
  return run;
}

ServiceRun run_service_phase(core::SolveService& svc,
                             core::SolveService::OperatorKey op,
                             const la::CsrMatrix& a, const Workload& w,
                             std::uint64_t seed, std::uint64_t first_index,
                             double seconds) {
  return w.kind == Kind::kServiceClosed
             ? run_closed(svc, op, a, w, seed, first_index, seconds)
             : run_open(svc, op, a, w, seed, first_index, seconds);
}

bool named(const obs::TraceEvent& e, const char* name) {
  return e.name != nullptr && std::strcmp(e.name, name) == 0;
}

double arg_of(const obs::TraceEvent& e, const char* key) {
  if (e.arg_key1 != nullptr && std::strcmp(e.arg_key1, key) == 0) {
    return e.arg_val1;
  }
  if (e.arg_key2 != nullptr && std::strcmp(e.arg_key2, key) == 0) {
    return e.arg_val2;
  }
  return 0.0;
}

void run_service_workload(const Workload& w, const Args& args,
                          const bench::Problem& p,
                          const core::HybridConfig& cfg,
                          const gnn::DssModel* model) {
  core::SolverSession probe;
  SetupSampler setup(p, cfg, args.trace);
  setup.sample(w.setup_reps / 2, &probe);
  const la::CsrMatrix& a = p.prob.A;

  core::SessionCache cache(/*byte_budget=*/1u << 30);
  core::SolveService svc(cache, w.service);
  const auto op = svc.register_operator(p.m, p.prob, cfg);
  {
    // Warm-up: one closed-loop burst, not measured.
    Workload warm = w;
    warm.in_flight = 16;
    (void)run_closed(svc, op, a, warm, args.seed, 1u << 30, 0.0);
  }

  // A traced run spends half its time untraced (the overhead reference and
  // the tail times) and half traced.
  const ServiceRun plain = run_service_phase(
      svc, op, a, w, args.seed, 0, args.trace ? args.seconds / 2 : args.seconds);
  Outcome outcome;
  outcome.add(plain.samples);
  std::string method = plain.method;
  Metrics m;
  if (!args.trace) {
    const double rss_mb = peak_rss_mb();  // before the closing setups
    setup.sample(w.setup_reps - w.setup_reps / 2);
    add_end_to_end(m, setup.median_s(), plain.samples, plain.wall_s, rss_mb);
  } else {
    obs::TraceRecorder::instance().clear();
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    GaugeSet g(kApplyGauges);
    const ServiceRun traced = run_service_phase(
        svc, op, a, w, args.seed, 1u << 20, args.seconds / 2);
    g.stop();
    obs::set_trace_enabled(false);
    obs::set_metrics_enabled(false);
    outcome.add(traced.samples);
    method = traced.method;

    // Windows and preconditioner applies from the program's own spans.
    double window_total = 0.0, window_cols_weighted = 0.0;
    double window_iters = 0.0, spmm_cols = 0.0;
    std::vector<double> precond_s;
    for (const obs::TraceEvent& e :
         obs::TraceRecorder::instance().snapshot()) {
      if (named(e, "service.window")) {
        const double dur = e.dur_ns * 1e-9;
        const double cols = arg_of(e, "batch");
        const double iters = arg_of(e, "iterations");
        window_total += dur;
        window_cols_weighted += dur * cols;
        window_iters += iters;
        spmm_cols += (iters + 1.0) * cols;  // initial residual + one per iter
      } else if (named(e, "precond.apply_many") || named(e, "precond.apply")) {
        precond_s.push_back(e.dur_ns * 1e-9);
      }
    }
    if (obs::TraceRecorder::instance().dropped() > 0) {
      std::fprintf(stderr, "perfbench: trace buffer overflowed; span totals "
                           "are incomplete\n");
    }
    double precond_total = 0.0;
    for (const double t : precond_s) precond_total += t;
    const auto& st = traced.stats;
    const double batch_mean =
        st.windows > 0 ? static_cast<double>(st.columns) / st.windows : 0.0;
    const auto spmm_width =
        static_cast<la::Index>(std::max(1.0, std::round(batch_mean)));
    const precond::Preconditioner& m_inv = probe.preconditioner();
    const double spmm_per_col =
        replay_spmm_seconds(a, m_inv, spmm_width, 40) / spmm_width;
    const double spmv_s =
        replay_iteration(a, m_inv, probe.method(), 100).spmv_median_s;
    const double completed = static_cast<double>(st.completed);

    setup.sample(w.setup_reps - w.setup_reps / 2);
    // The served session (a cache hit), with the plans it built lazily.
    add_common_layers(m, setup, *cache.get_or_setup(p.m, p.prob, cfg),
                      outcome);
    m.add("solver.self_ms_per_iter", 0.0, "ms");
    m.add("block.self_ms_per_iter",
          window_iters > 0 ? (window_total - precond_total -
                              spmm_cols * spmm_per_col) /
                                 window_iters * 1e3
                           : 0.0,
          "ms");
    m.add("la.spmv_ms", spmv_s * 1e3, "ms");
    m.add("la.spmv_gbs_computed", spmv_bytes(a) / spmv_s / 1e9, "GB/s");
    m.add("la.spmm_ms_per_col", spmm_per_col * 1e3, "ms");
    m.add("precond.apply_ms_p50", median(precond_s) * 1e3, "ms");
    m.add("precond.applies_per_solve",
          completed > 0 ? precond_s.size() / completed : 0.0, "count");
    m.add("precond.share",
          window_total > 0 ? precond_total / window_total : 0.0, "frac");
    add_apply_breakdown(m, g, static_cast<double>(precond_s.size()),
                        gnn_shape(probe, model));
    m.add("service.queue_wait_ms_p50", quantile(traced.queue_s, 0.5) * 1e3,
          "ms");
    m.add("service.queue_wait_ms_p99", quantile(traced.queue_s, 0.99) * 1e3,
          "ms");
    std::vector<double> exec_s;
    for (const Sample& s : traced.samples) {
      if (std::isfinite(s.solve_s)) exec_s.push_back(s.solve_s);
    }
    m.add("service.exec_ms_p50", quantile(exec_s, 0.5) * 1e3, "ms");
    m.add("service.batch_cols_mean", batch_mean, "count");
    m.add("service.applies_per_solve",
          completed > 0 ? st.precond_applies / completed : 0.0, "count");
    // Queue wait (from the replies) plus window execution (from the
    // service.window spans, once per column) over submit-to-completion time.
    double queue_total = 0.0, from_submit_total = 0.0;
    for (const double q : traced.queue_s) queue_total += q;
    for (const double t : traced.from_submit_s) from_submit_total += t;
    add_bench_layers(m, plain.samples, plain.wall_s, traced.samples,
                     traced.wall_s,
                     from_submit_total > 0
                         ? (queue_total + window_cols_weighted) /
                               from_submit_total
                         : 0.0);
  }
  double late_max = 0.0;
  for (const double l : plain.late_s) late_max = std::max(late_max, l);
  print_run_info(w, method, probe, a, plain.samples, late_max);
  print_result(outcome, m);
}

// ------------------------------------------------------------------ main --

void print_config(const Workload& w, const core::HybridConfig& cfg) {
  const char* method =
      cfg.method ? solver::krylov_method_name(*cfg.method) : "auto";
  std::printf(
      "{\"info\": \"config\", \"workload\": \"%s\", \"nodes\": %d, "
      "\"problem_seed\": %llu, \"inner_threads\": %d, \"preconditioner\": "
      "\"%s\", \"Ns\": %d, \"overlap\": %d, \"rel_tol\": %g, "
      "\"max_iterations\": %d, \"method\": \"%s\", \"refinement_steps\": %d, "
      "\"adaptive_refinement\": %s, \"cost_aware_fallback\": %s, "
      "\"precond_fp32\": %s, \"workers\": %d, \"max_batch\": %d, "
      "\"max_wait_us\": %lld, \"queue_capacity\": %zu, \"in_flight\": %d, "
      "\"rate_per_s\": %g}\n",
      w.name.c_str(), static_cast<int>(w.nodes),
      static_cast<unsigned long long>(w.problem_seed), w.inner_threads,
      cfg.preconditioner.c_str(), static_cast<int>(cfg.subdomain_target_nodes),
      cfg.overlap, cfg.rel_tol, cfg.max_iterations, method,
      cfg.gnn_refinement_steps, cfg.gnn_adaptive_refinement ? "true" : "false",
      cfg.gnn_cost_aware_fallback ? "true" : "false",
      cfg.precond_fp32 ? "true" : "false", w.service.num_workers,
      w.service.max_batch, static_cast<long long>(w.service.max_wait.count()),
      w.service.queue_capacity, w.in_flight, w.rate_per_s);
}

int run(const Args& args) {
  const std::optional<Workload> found = find_workload(args.workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  set_num_threads(w.inner_threads);
  const bench::Problem p = bench::make_problem(w.nodes, w.problem_seed);

  std::optional<gnn::DssModel> model;
  core::HybridConfig cfg = w.cfg;
  if (w.needs_model) {
    const std::string path = core::model_cache_path(pinned_model_spec());
    model = gnn::load_model(path);
    if (!model) {
      std::fprintf(stderr, "pinned model missing at %s (run `train`)\n",
                   path.c_str());
      return 2;
    }
    cfg.model = &*model;
    std::printf("{\"info\": \"model\", \"hash\": \"%s\"}\n",
                model_hash(*model).c_str());
  }
  print_config(w, cfg);
  const gnn::DssModel* model_ptr = model ? &*model : nullptr;
  if (w.kind == Kind::kDirect) {
    run_direct_workload(w, args, p, cfg, model_ptr);
  } else {
    run_service_workload(w, args, p, cfg, model_ptr);
  }
  return 0;
}

int train() {
  set_num_threads(kTrainThreads);
  const core::ZooSpec spec = pinned_model_spec();
  const auto t0 = Clock::now();
  const gnn::DssModel model = core::get_or_train_model(spec);
  std::printf("{\"info\": \"model\", \"path\": \"%s\", \"hash\": \"%s\", "
              "\"seconds\": %.3f}\n",
              core::model_cache_path(spec).c_str(), model_hash(model).c_str(),
              seconds_between(t0, Clock::now()));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    // Traced service runs keep every window's spans in memory.
    ddmgnn::obs::TraceRecorder::instance().set_capacity_per_thread(1u << 20);
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.command == "train") return perfbench::train();
    if (args.command == "run") return perfbench::run(args);
    std::fprintf(stderr, "unknown command '%s'\n", args.command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
