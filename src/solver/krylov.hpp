// Krylov solvers (paper §II): preconditioned CG exactly as Algorithm 1
// (plain CG is it without a preconditioner), flexible PCG
// (Polak–Ribière β — required when the preconditioner is not a fixed SPD
// operator, which is the case for DDM-GNN) and restarted GMRES for
// non-symmetric settings. All report per-iteration relative residual
// histories (Fig. 5b) and the accumulated preconditioner time (Table III's
// T_lu / T_gnn columns).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "la/csr.hpp"
#include "obs/forensics.hpp"
#include "precond/preconditioner.hpp"

namespace ddmgnn::solver {

using la::CsrMatrix;

/// The Krylov methods this module implements, as data: configs carry one of
/// these instead of call sites hard-coding which solver function to invoke.
enum class KrylovMethod {
  kCg,     // unpreconditioned conjugate gradient
  kPcg,    // Algorithm 1 (Fletcher–Reeves)
  kFpcg,   // flexible PCG (Polak–Ribière) — safe for nonlinear M⁻¹
  kGmres,  // restarted GMRES, right preconditioning
};

/// Canonical lowercase name: "cg", "pcg", "fpcg", "gmres".
/// SolveResult::method strings are prefixed with exactly these.
const char* krylov_method_name(KrylovMethod method);

/// Inverse of krylov_method_name; nullopt for unknown strings.
std::optional<KrylovMethod> krylov_method_from_name(std::string_view name);

struct SolveOptions {
  int max_iterations = 10000;
  /// Convergence: ||r_k|| <= rel_tol * ||b||.
  double rel_tol = 1e-6;
  bool track_history = true;
  /// Restart length when the method is KrylovMethod::kGmres.
  int gmres_restart = 50;
  /// Mixed-precision preconditioning: round the residual handed to M⁻¹ and
  /// the correction it returns through fp32 while every outer recurrence
  /// (x, r, dots, norms) stays fp64. Honored by pcg / flexible_pcg and
  /// block_flexible_pcg; plain CG (kCg) ignores it. The rounding makes M
  /// effectively nonlinear, so pair it with kFpcg (SolverSession's
  /// default-method selection does this); every driver's true-residual
  /// check guards it further.
  bool precond_fp32 = false;
  /// Warm-start guess: when non-empty (size n), run_krylov copies it into
  /// `x` before dispatching, so the solve starts from x0 instead of whatever
  /// the caller left in `x`. Every driver already treats `x` as the initial
  /// guess (r₀ = b − A·x₀); this field just makes seeding explicit for
  /// callers — SolverSession::solve_many and the streaming SolveService —
  /// whose output buffers are freshly allocated. The span is only read
  /// during the run_krylov call.
  std::span<const double> x0;
};

struct SolveResult {
  bool converged = false;
  int iterations = 0;
  double final_relative_residual = 0.0;
  /// history[k] = ||r_k|| / ||b|| (k = 0 is the initial residual).
  std::vector<double> history;
  double total_seconds = 0.0;
  /// Time spent inside Preconditioner::apply. Every driver (scalar, block,
  /// stationary) accumulates over the exact windows that also become
  /// "precond.apply" trace spans, so the coarse correction — which runs
  /// inside AdditiveSchwarz::apply — is included everywhere by construction.
  double precond_seconds = 0.0;
  /// Why the solve missed tolerance (kNone when converged). Assigned by
  /// classify_failure in every driver.
  obs::FailureReason failure = obs::FailureReason::kNone;
  /// Seconds of each individual preconditioner application, in order.
  /// Captured only while obs::forensics_enabled(); empty otherwise.
  std::vector<double> precond_history;
  std::string method;
};

/// Assign res.failure from the residual history: NaN/Inf residual → kNan;
/// final residual grew ≥10x past its start → kDiverged; <1% improvement over
/// the trailing 10 recorded iterations → kStagnated; otherwise kMaxIterations
/// (also the conservative answer when track_history was off). Pure function
/// of (res, opts); exposed so tests and post-hoc tooling can re-classify.
obs::FailureReason classify_failure(const SolveResult& res,
                                    const SolveOptions& opts);

/// Every driver's return path: fills res.failure (kNone when converged;
/// classify_failure otherwise, unless the driver already pinned a reason —
/// stationary_iteration detects divergence itself) and, when metrics are
/// enabled, records the per-solve counters/gauges/histograms
/// (solver.solves_total, solver.solve_seconds_total,
/// solver.precond_seconds_total, solver.iterations,
/// solver.failures_total{method=...,reason=...}).
void finalize_solve_telemetry(SolveResult& res, const SolveOptions& opts);

/// Preconditioned CG, Algorithm 1 of the paper (Fletcher–Reeves β). When
/// the recurrence residual meets rel_tol, ‖b − A·x‖ is recomputed once:
/// converged is reported only if that true residual meets it too, otherwise
/// the recurrence restarts from the true residual. final_relative_residual
/// is always the true value. Plain CG (run_krylov with kCg) is this
/// recurrence without a preconditioner (z is r itself), so it is checked
/// the same way; flexible_pcg does the same, and block_flexible_pcg does it
/// per column.
SolveResult pcg(const CsrMatrix& a, const precond::Preconditioner& m,
                std::span<const double> b, std::span<double> x,
                const SolveOptions& opts = {});

/// Flexible PCG: β = <r_{k+1}, z_{k+1} - z_k> / <r_k, z_k>. Tolerates
/// non-symmetric / nonlinear preconditioners such as the GNN.
SolveResult flexible_pcg(const CsrMatrix& a, const precond::Preconditioner& m,
                         std::span<const double> b, std::span<double> x,
                         const SolveOptions& opts = {});

/// Restarted GMRES(m) with right preconditioning; the restart length is
/// opts.gmres_restart.
SolveResult gmres(const CsrMatrix& a, const precond::Preconditioner& m,
                  std::span<const double> b, std::span<double> x,
                  const SolveOptions& opts = {});

/// Dispatch on `method`. kCg ignores `m` and opts.precond_fp32: it runs the
/// pcg recurrence without a preconditioner under the bare label "cg".
/// This is the single entry point SolverSession and the tools route through.
SolveResult run_krylov(KrylovMethod method, const CsrMatrix& a,
                       const precond::Preconditioner& m,
                       std::span<const double> b, std::span<double> x,
                       const SolveOptions& opts = {});

}  // namespace ddmgnn::solver
