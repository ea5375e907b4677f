// Shared solver-driver internals: the one timed window every preconditioner
// application goes through, the forensics-series hookup, and the true
// residual the drivers verify convergence against.
// Internal to src/solver (krylov.cpp, block_krylov.cpp, stationary.cpp); the
// public telemetry surface (classify_failure, finalize_solve_telemetry) is
// declared in krylov.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "la/vector_ops.hpp"
#include "obs/flags.hpp"
#include "obs/trace.hpp"
#include "solver/krylov.hpp"

namespace ddmgnn::solver {

/// One timed preconditioner application: the single measurement feeds (a)
/// SolveResult::precond_seconds via the Accumulator, (b) the forensics
/// per-application series when enabled, and (c) a "precond.apply" trace span
/// of the identical duration — so span totals reconcile with precond_seconds
/// exactly, across every driver (the consistency satellite of the telemetry
/// PR is true by construction, not by convention).
class PrecondScope {
 public:
  PrecondScope(Accumulator& acc, std::vector<double>* series,
               const char* span_name = "precond.apply")
      : acc_(acc), series_(series), name_(span_name),
        tracing_(obs::trace_enabled()) {
    if (tracing_) start_ns_ = obs::TraceRecorder::instance().now_ns();
    timer_.reset();
  }
  ~PrecondScope() {
    const double s = timer_.seconds();
    acc_.add(s);
    if (series_ != nullptr) series_->push_back(s);
    if (tracing_) {
      obs::emit_span(name_, start_ns_, static_cast<std::int64_t>(s * 1e9));
    }
  }
  PrecondScope(const PrecondScope&) = delete;
  PrecondScope& operator=(const PrecondScope&) = delete;

 private:
  Accumulator& acc_;
  std::vector<double>* series_;
  const char* name_;
  bool tracing_;
  std::int64_t start_ns_ = 0;
  Timer timer_;
};

/// &res.precond_history when forensics capture is on, else nullptr (the
/// series then stays empty and PrecondScope skips the push_back).
inline std::vector<double>* forensic_series(SolveResult& res) {
  return obs::forensics_enabled() ? &res.precond_history : nullptr;
}

/// Residual-history capture gate: the caller's track_history option OR the
/// process-wide forensics flag — forensics needs the per-iteration residual
/// series (classify_failure's stagnation window reads it) even when the
/// caller opted out of history, as serving front-ends do.
inline bool history_enabled(const SolveOptions& opts) {
  return opts.track_history || obs::forensics_enabled();
}

/// r = b − A·x; returns ‖r‖. PCG (and so plain CG), flexible PCG and block
/// flexible PCG stop on this TRUE residual, not on their recurrence's r:
/// rounding, fp32 applies or a nonlinear M⁻¹ make the two drift apart, and
/// a converged flag must hold for the answer.
inline double true_residual(const CsrMatrix& a, std::span<const double> b,
                            std::span<const double> x, std::span<double> r) {
  a.multiply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return la::norm2(r);
}

}  // namespace ddmgnn::solver
