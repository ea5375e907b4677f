// Solver drivers several test binaries call directly: plain CG as a session
// with preconditioner "none" runs it, and block FPCG on a prepared session
// whatever that session's batch width.
#pragma once

#include <span>
#include <vector>

#include "core/solver_session.hpp"
#include "la/multivector.hpp"
#include "precond/preconditioner.hpp"
#include "solver/block_krylov.hpp"
#include "solver/krylov.hpp"

namespace ddmgnn::test_util {

/// Plain CG, as a session with preconditioner "none" runs it.
inline solver::SolveResult plain_cg(const la::CsrMatrix& a,
                                    std::span<const double> b,
                                    std::span<double> x,
                                    const solver::SolveOptions& opts = {}) {
  static const precond::IdentityPreconditioner identity;
  return solver::run_krylov(solver::KrylovMethod::kCg, a, identity, b, x,
                            opts);
}

/// Block FPCG from a zero start on a session's operator `a` and prepared
/// preconditioner, with the tolerance, iteration cap, history and fp32
/// settings of the session's config. `xs` receives the solutions.
inline std::vector<solver::SolveResult> block_fpcg(
    const core::SolverSession& session, const la::CsrMatrix& a,
    const std::vector<std::vector<double>>& rhs,
    std::vector<std::vector<double>>& xs) {
  const core::HybridConfig& cfg = session.config();
  const solver::SolveOptions opts{.max_iterations = cfg.max_iterations,
                                  .rel_tol = cfg.rel_tol,
                                  .track_history = cfg.track_history,
                                  .precond_fp32 = cfg.precond_fp32};
  const la::MultiVector b = la::MultiVector::from_columns(rhs);
  la::MultiVector x(b.rows(), b.cols(), 0.0);
  auto results =
      solver::block_flexible_pcg(a, session.preconditioner(), b, x, opts);
  xs.clear();
  for (la::Index j = 0; j < x.cols(); ++j) {
    xs.emplace_back(x.col(j).begin(), x.col(j).end());
  }
  return results;
}

}  // namespace ddmgnn::test_util
