#include "solver/krylov.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "la/vector_ops.hpp"
#include "obs/flags.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/telemetry.hpp"

namespace ddmgnn::solver {

namespace {

using la::axpy;
using la::dot;
using la::norm2;
using la::xpay;

void check_dims(const CsrMatrix& a, std::span<const double> b,
                std::span<double> x) {
  DDMGNN_CHECK(a.rows() == a.cols(), "krylov: square matrix required");
  DDMGNN_CHECK(b.size() == static_cast<std::size_t>(a.rows()) &&
                   x.size() == b.size(),
               "krylov: dimension mismatch");
}

/// "<method>+<preconditioner>" — the one format every SolveResult::method
/// string follows (plain CG has no preconditioner and stays bare "cg").
std::string method_label(KrylovMethod method,
                         const precond::Preconditioner& m) {
  return std::string(krylov_method_name(method)) + "+" + m.name();
}

}  // namespace

const char* krylov_method_name(KrylovMethod method) {
  switch (method) {
    case KrylovMethod::kCg: return "cg";
    case KrylovMethod::kPcg: return "pcg";
    case KrylovMethod::kFpcg: return "fpcg";
    case KrylovMethod::kGmres: return "gmres";
  }
  return "?";
}

std::optional<KrylovMethod> krylov_method_from_name(std::string_view name) {
  for (const KrylovMethod m :
       {KrylovMethod::kCg, KrylovMethod::kPcg, KrylovMethod::kFpcg,
        KrylovMethod::kGmres}) {
    if (name == krylov_method_name(m)) return m;
  }
  return std::nullopt;
}

obs::FailureReason classify_failure(const SolveResult& res,
                                    const SolveOptions& opts) {
  using obs::FailureReason;
  if (res.converged) return FailureReason::kNone;
  const double fr = res.final_relative_residual;
  if (!std::isfinite(fr)) return FailureReason::kNan;
  const double initial = res.history.empty() ? 1.0 : res.history.front();
  if (fr > 10.0 * std::max(initial, 1.0)) return FailureReason::kDiverged;
  // Stagnation: <1% improvement over the trailing 10 recorded iterations.
  constexpr std::size_t kWindow = 10;
  if (res.history.size() > kWindow) {
    const double then = res.history[res.history.size() - 1 - kWindow];
    const double now = res.history.back();
    if (then > 0.0 && now / then > 0.99) return FailureReason::kStagnated;
  }
  if (res.iterations >= opts.max_iterations) {
    return FailureReason::kMaxIterations;
  }
  // Early exit below the iteration budget (a driver that stopped without
  // converging): progress stopped, which is stagnation in all but name.
  return res.history.empty() ? FailureReason::kMaxIterations
                             : FailureReason::kStagnated;
}

void finalize_solve_telemetry(SolveResult& res, const SolveOptions& opts) {
  if (res.converged) {
    res.failure = obs::FailureReason::kNone;
  } else if (res.failure == obs::FailureReason::kNone) {
    res.failure = classify_failure(res, opts);
  }
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::Registry::instance();
  static obs::Counter& solves = reg.counter("solver.solves_total");
  static obs::Gauge& solve_s = reg.gauge("solver.solve_seconds_total");
  static obs::Gauge& precond_s = reg.gauge("solver.precond_seconds_total");
  static obs::Histogram& iters = reg.histogram(
      "solver.iterations", {},
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
  solves.inc();
  solve_s.add(res.total_seconds);
  precond_s.add(res.precond_seconds);
  iters.observe(static_cast<double>(res.iterations));
  if (!res.converged) {
    reg.counter("solver.failures_total",
                "method=" + res.method + ",reason=" +
                    obs::failure_reason_name(res.failure))
        .inc();
  }
}

namespace {

/// Algorithm 1 under `label`. Plain CG is the <false> instantiation (`m`
/// unused): z is r itself, so <r, z> is the ‖r‖² the residual norm already
/// computed and every update is the CG one — no copy, dot or timer is
/// compiled in — and CG gets the same true-residual check.
template <bool kPreconditioned>
SolveResult pcg_recurrence(const CsrMatrix& a,
                           const precond::Preconditioner* m,
                           std::span<const double> b, std::span<double> x,
                           const SolveOptions& opts, std::string label) {
  check_dims(a, b, x);
  Timer timer;
  Accumulator precond_time;
  SolveResult res;
  res.method = std::move(label);
  std::vector<double>* series = forensic_series(res);
  const std::size_t n = b.size();
  // One preconditioner workspace per solve: applies stay allocation-free in
  // steady state and concurrent solves on one shared M never share scratch.
  std::unique_ptr<precond::ApplyWorkspace> ws;
  if constexpr (kPreconditioned) ws = m->make_workspace();
  std::vector<double> r(n), z(kPreconditioned ? n : 0), p(n), q(n);
  const std::span<const double> zr =
      kPreconditioned ? std::span<const double>(z) : std::span<const double>(r);
  std::vector<double> r32;  // fp32-rounded residual (opts.precond_fp32)
  if (kPreconditioned && opts.precond_fp32) r32.resize(n);
  // z = M⁻¹ r; nothing to do for plain CG.
  auto apply_m = [&] {
    if constexpr (kPreconditioned) {
      PrecondScope t(precond_time, series);
      if (opts.precond_fp32) {
        la::round_to_float(r, r32);
        m->apply(r32, z, ws.get());
        la::round_to_float(z, z);
      } else {
        m->apply(r, z, ws.get());
      }
    }
  };
  // r0 = b - A x0, z0 = M⁻¹ r0, p0 = z0   (Algorithm 1)
  double rnorm = true_residual(a, b, x, r);
  apply_m();
  std::copy(zr.begin(), zr.end(), p.begin());
  const double nb = norm2(b);
  const double stop = opts.rel_tol * (nb > 0.0 ? nb : 1.0);
  double rho = dot(r, zr);
  if (history_enabled(opts)) res.history.push_back(rnorm / (nb > 0 ? nb : 1.0));
  bool exact = true;  // r is b − A·x itself, not the recurrence's update
  int it = 0;
  while (rnorm > stop && it < opts.max_iterations) {
    obs::Span iter_span(kPreconditioned ? "pcg.iter" : "cg.iter");
    a.multiply(p, q);
    const double alpha = rho / dot(p, q);
    axpy(alpha, p, x);
    axpy(-alpha, q, r);
    const double rr = dot(r, r);
    rnorm = std::sqrt(rr);  // norm2(r), bit for bit
    exact = false;
    ++it;
    if (history_enabled(opts)) res.history.push_back(rnorm / (nb > 0 ? nb : 1.0));
    iter_span.arg("iter", it);
    iter_span.arg("rel_residual", rnorm / (nb > 0 ? nb : 1.0));
    if (rnorm <= stop) {
      // Verify once; on a miss, restart the recurrence from the true r.
      rnorm = true_residual(a, b, x, r);
      exact = true;
      if (rnorm <= stop) break;
      apply_m();
      std::copy(zr.begin(), zr.end(), p.begin());
      rho = dot(r, zr);
      continue;
    }
    apply_m();
    double rho_next = rr;
    if constexpr (kPreconditioned) rho_next = dot(r, z);
    const double beta = rho_next / rho;
    xpay(zr, beta, p);
    rho = rho_next;
  }
  if (!exact) rnorm = true_residual(a, b, x, r);
  res.iterations = it;
  res.converged = rnorm <= stop;
  res.final_relative_residual = rnorm / (nb > 0 ? nb : 1.0);
  res.total_seconds = timer.seconds();
  res.precond_seconds = precond_time.total();
  finalize_solve_telemetry(res, opts);
  return res;
}

}  // namespace

SolveResult pcg(const CsrMatrix& a, const precond::Preconditioner& m,
                std::span<const double> b, std::span<double> x,
                const SolveOptions& opts) {
  return pcg_recurrence<true>(a, &m, b, x, opts,
                        method_label(KrylovMethod::kPcg, m));
}

SolveResult flexible_pcg(const CsrMatrix& a, const precond::Preconditioner& m,
                         std::span<const double> b, std::span<double> x,
                         const SolveOptions& opts) {
  check_dims(a, b, x);
  Timer timer;
  Accumulator precond_time;
  SolveResult res;
  res.method = method_label(KrylovMethod::kFpcg, m);
  std::vector<double>* series = forensic_series(res);
  const std::size_t n = b.size();
  const auto ws = m.make_workspace();
  std::vector<double> r(n), z(n), z_prev(n), dz(n), p(n), q(n);
  std::vector<double> r32;  // fp32-rounded residual (opts.precond_fp32)
  if (opts.precond_fp32) r32.resize(n);
  auto apply_m = [&](std::span<const double> in, std::span<double> out) {
    PrecondScope t(precond_time, series);
    if (opts.precond_fp32) {
      la::round_to_float(in, r32);
      m.apply(r32, out, ws.get());
      la::round_to_float(out, out);
    } else {
      m.apply(in, out, ws.get());
    }
  };
  double rnorm = true_residual(a, b, x, r);
  apply_m(r, z);
  std::copy(z.begin(), z.end(), p.begin());
  const double nb = norm2(b);
  const double stop = opts.rel_tol * (nb > 0.0 ? nb : 1.0);
  double rho = dot(r, z);
  if (history_enabled(opts)) res.history.push_back(rnorm / (nb > 0 ? nb : 1.0));
  bool exact = true;  // r is b − A·x itself, not the recurrence's update
  int it = 0;
  while (rnorm > stop && it < opts.max_iterations) {
    obs::Span iter_span("fpcg.iter");
    a.multiply(p, q);
    const double pq = dot(p, q);
    if (pq <= 0.0 || rho == 0.0) {
      // Direction lost positivity (can happen with a nonlinear
      // preconditioner): restart from the preconditioned residual.
      apply_m(r, z);
      std::copy(z.begin(), z.end(), p.begin());
      rho = dot(r, z);
      a.multiply(p, q);
      const double pq2 = dot(p, q);
      DDMGNN_CHECK(pq2 > 0.0, "flexible_pcg: breakdown");
    }
    const double alpha = rho / dot(p, q);
    axpy(alpha, p, x);
    std::copy(z.begin(), z.end(), z_prev.begin());
    axpy(-alpha, q, r);
    rnorm = norm2(r);
    exact = false;
    ++it;
    if (history_enabled(opts)) res.history.push_back(rnorm / (nb > 0 ? nb : 1.0));
    iter_span.arg("iter", it);
    iter_span.arg("rel_residual", rnorm / (nb > 0 ? nb : 1.0));
    if (rnorm <= stop) {
      // Verify once; on a miss, restart the recurrence from the true r.
      rnorm = true_residual(a, b, x, r);
      exact = true;
      if (rnorm <= stop) break;
      apply_m(r, z);
      std::copy(z.begin(), z.end(), p.begin());
      rho = dot(r, z);
      continue;
    }
    apply_m(r, z);
    // Polak–Ribière: β = <r, z - z_prev> / rho.
    for (std::size_t i = 0; i < n; ++i) dz[i] = z[i] - z_prev[i];
    const double beta = dot(r, dz) / rho;
    rho = dot(r, z);
    xpay(z, beta, p);
  }
  if (!exact) rnorm = true_residual(a, b, x, r);
  res.iterations = it;
  res.converged = rnorm <= stop;
  res.final_relative_residual = rnorm / (nb > 0 ? nb : 1.0);
  res.total_seconds = timer.seconds();
  res.precond_seconds = precond_time.total();
  finalize_solve_telemetry(res, opts);
  return res;
}

SolveResult gmres(const CsrMatrix& a, const precond::Preconditioner& m,
                  std::span<const double> b, std::span<double> x,
                  const SolveOptions& opts) {
  check_dims(a, b, x);
  const int restart = opts.gmres_restart;
  DDMGNN_CHECK(restart >= 1, "gmres: restart must be >= 1");
  Timer timer;
  Accumulator precond_time;
  SolveResult res;
  res.method = method_label(KrylovMethod::kGmres, m);
  std::vector<double>* series = forensic_series(res);
  const std::size_t n = b.size();
  const auto ws = m.make_workspace();
  const double nb = norm2(b);
  const double stop = opts.rel_tol * (nb > 0.0 ? nb : 1.0);

  std::vector<std::vector<double>> basis;  // Krylov basis v_0..v_m
  std::vector<std::vector<double>> zs;     // preconditioned basis vectors
  std::vector<double> r(n), w(n), zw(n);
  // Hessenberg in column-major (restart+1) x restart, plus Givens rotations.
  std::vector<double> h((restart + 1) * restart, 0.0);
  std::vector<double> cs(restart), sn(restart), g(restart + 1);

  int total_it = 0;
  double rnorm = 0.0;
  bool first = true;
  while (true) {
    a.multiply(x, r);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    rnorm = norm2(r);
    if (first && history_enabled(opts)) {
      res.history.push_back(rnorm / (nb > 0 ? nb : 1.0));
    }
    first = false;
    if (rnorm <= stop || total_it >= opts.max_iterations) break;

    basis.assign(1, r);
    la::scale(1.0 / rnorm, basis[0]);
    zs.clear();
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = rnorm;
    int k = 0;
    for (; k < restart && total_it < opts.max_iterations; ++k) {
      obs::Span iter_span("gmres.iter");
      {
        PrecondScope t(precond_time, series);
        m.apply(basis[k], zw, ws.get());
      }
      zs.push_back(zw);
      a.multiply(zw, w);
      // Modified Gram-Schmidt.
      for (int j = 0; j <= k; ++j) {
        const double hij = dot(w, basis[j]);
        h[j * restart + k] = hij;
        axpy(-hij, basis[j], w);
      }
      const double hk1 = norm2(w);
      basis.emplace_back(w);
      if (hk1 > 0.0) la::scale(1.0 / hk1, basis.back());
      // Apply previous Givens rotations to the new column.
      for (int j = 0; j < k; ++j) {
        const double t1 = cs[j] * h[j * restart + k] + sn[j] * h[(j + 1) * restart + k];
        const double t2 = -sn[j] * h[j * restart + k] + cs[j] * h[(j + 1) * restart + k];
        h[j * restart + k] = t1;
        h[(j + 1) * restart + k] = t2;
      }
      const double denom = std::hypot(h[k * restart + k], hk1);
      cs[k] = denom == 0.0 ? 1.0 : h[k * restart + k] / denom;
      sn[k] = denom == 0.0 ? 0.0 : hk1 / denom;
      h[k * restart + k] = denom;
      g[k + 1] = -sn[k] * g[k];
      g[k] = cs[k] * g[k];
      ++total_it;
      rnorm = std::abs(g[k + 1]);
      if (history_enabled(opts))
        res.history.push_back(rnorm / (nb > 0 ? nb : 1.0));
      iter_span.arg("iter", total_it);
      iter_span.arg("rel_residual", rnorm / (nb > 0 ? nb : 1.0));
      if (rnorm <= stop) {
        ++k;
        break;
      }
    }
    // Back-substitute y and update x += Σ y_j z_j (right preconditioning).
    std::vector<double> y(k, 0.0);
    for (int i = k - 1; i >= 0; --i) {
      double acc = g[i];
      for (int j = i + 1; j < k; ++j) acc -= h[i * restart + j] * y[j];
      y[i] = acc / h[i * restart + i];
    }
    for (int j = 0; j < k; ++j) axpy(y[j], zs[j], x);
    if (total_it >= opts.max_iterations) break;
  }
  res.iterations = total_it;
  res.converged = rnorm <= stop;
  res.final_relative_residual = rnorm / (nb > 0 ? nb : 1.0);
  res.total_seconds = timer.seconds();
  res.precond_seconds = precond_time.total();
  finalize_solve_telemetry(res, opts);
  return res;
}

SolveResult run_krylov(KrylovMethod method, const CsrMatrix& a,
                       const precond::Preconditioner& m,
                       std::span<const double> b, std::span<double> x,
                       const SolveOptions& opts) {
  if (!opts.x0.empty()) {
    DDMGNN_CHECK(opts.x0.size() == x.size(),
                 "run_krylov: x0 size does not match the system");
    std::copy(opts.x0.begin(), opts.x0.end(), x.begin());
  }
  switch (method) {
    case KrylovMethod::kCg:
      return pcg_recurrence<false>(a, nullptr, b, x, opts,
                                   krylov_method_name(KrylovMethod::kCg));
    case KrylovMethod::kPcg: return pcg(a, m, b, x, opts);
    case KrylovMethod::kFpcg: return flexible_pcg(a, m, b, x, opts);
    case KrylovMethod::kGmres: return gmres(a, m, b, x, opts);
  }
  DDMGNN_CHECK(false, "run_krylov: unknown method");
  std::abort();  // unreachable
}

}  // namespace ddmgnn::solver
