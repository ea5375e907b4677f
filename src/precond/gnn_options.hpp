// Knobs of the DSS (GNN) local solver inside two-level Schwarz — the one
// definition shared by the preconditioner table (PrecondContext::gnn) and
// core::GnnSubdomainSolver. Lives in precond so the table header does not
// pull in core. Tuning values no caller changes (probe count, contraction
// target, pass cap, cost margin) are constants in gnn_subdomain_solver.cpp.
#pragma once

namespace ddmgnn::precond {

struct GnnOptions {
  /// The §III-A residual normalization (ablatable).
  bool normalize_input = true;
  /// Extra residual-correction passes per local solve:
  ///   v ← v + ‖res‖ · DSSθ(G_i(res/‖res‖)),  res = r_i − A_i v.
  /// 0 reproduces the paper exactly (one inference per subdomain per PCG
  /// iteration). Each step multiplies local accuracy at one extra
  /// inference — the repo's compensation for its smaller CPU training
  /// budget; the ablation bench quantifies it.
  int refinement_steps = 0;
  /// Refine-until-contractive setup (the served-configuration fix): probe
  /// each subdomain at setup with a few deterministic residuals, run the
  /// refinement loop on the probe, and keep the smallest pass count whose
  /// measured contraction ‖r − A_i z‖/‖r‖ reaches the contraction target. A
  /// subdomain still above the target after the pass cap is non-contractive
  /// for this model and falls back to an exact skyline-Cholesky local solve.
  /// refinement_steps then acts as the per-subdomain floor.
  bool adaptive_refinement = false;
  /// Within the adaptive setup, also fall back to the exact solve when a
  /// deterministic flop model says the refined GNN apply costs overwhelmingly
  /// more than the Cholesky sweeps. A contractive-but-uneconomic subdomain is
  /// a real serving failure mode on CPU: at small subdomain sizes the
  /// envelope sweep is both cheaper AND exact. Set false to force the GNN
  /// apply on every contractive subdomain (ablations, kernel benchmarking).
  bool cost_aware_fallback = true;
  /// Run the Cholesky-fallback sweeps on an fp32 factor copy — the local
  /// piece of a mixed-precision apply (pair with SolveOptions::precond_fp32;
  /// the outer Krylov's flexibility/true-residual guard absorbs the
  /// rounding).
  bool fp32_fallback = false;
};

}  // namespace ddmgnn::precond
