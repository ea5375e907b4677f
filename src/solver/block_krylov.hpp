// Block-Krylov solvers: the iteration layer of the batched multi-RHS solve
// engine. Both methods advance ALL right-hand sides per iteration so every
// A·P becomes one SpMM and every M⁻¹·R one block preconditioner application
// (for DDM-GNN: one disjoint-union DSS inference over all K×s local
// problems, the paper's Eq. 14 batching). Columns converge at their own
// rates and are deflated out of the working block as they finish.
//
// Two methods, with deliberately different semantics:
//
//  * block_pcg — LOCKSTEP independent recurrences. Each column runs exactly
//    the scalar pcg() arithmetic (same kernels, same order, the same
//    true-residual check at the stop test and restart on a miss), columns
//    only share the fused SpMM / block-preconditioner calls. Iteration
//    counts, iterates, converged flags and final residuals are bit-identical
//    to solving each RHS alone (tested, with and without fp32 applies). Use
//    with fixed SPD preconditioners; the win is amortized memory traffic,
//    not fewer iterations.
//
//  * block_flexible_pcg — SHARED search space. Each iteration
//    A-orthonormalizes the s preconditioned residuals into one direction
//    block and minimizes every column's A-norm error over all of them, so
//    each column benefits from the directions generated for the others and
//    typically converges in substantially fewer iterations than scalar
//    fpcg — this is where the batched DSS inference pays (fewer iterations
//    × cheaper per-iteration inference). Nonlinear preconditioners (the
//    GNN) are handled flexibly: conjugation only against the previous
//    block, stagnation detection, and a per-column true-residual
//    verification with scalar-fpcg fallback as the correctness net.
#pragma once

#include <optional>
#include <vector>

#include "la/multivector.hpp"
#include "solver/krylov.hpp"

namespace ddmgnn::solver {

/// Directions block_flexible_pcg keeps in its window while it holds at most
/// 16 columns (wider blocks keep 16 per column).
inline constexpr la::Index kBlockFpcgWindow = 256;

/// One column's block-FPCG window work per block iteration, in flops per
/// row: two conjugation GEMMs (C = QᵀZ, Z −= P·C) and three Galerkin GEMMs
/// (C = PᵀR, X += P·C, R −= Q·C) over the full window, 2 flops per stored
/// entry each.
inline constexpr double kFullWindowFlopsPerRow = 10.0 * kBlockFpcgWindow;

/// Batching pays when one column's preconditioner apply costs at least this
/// many flops per row: twice the modeled window work, where the measured
/// break-even sits. Measured through SolveService (4-vCPU VM, 1 inner
/// thread, 2 workers, 16 requests in flight, 30 s closed-loop runs, 3
/// interleaved pairs per point, medians), max_batch = 16 against 1:
///  * raw ddm-gnn (fp64 FPCG, no refinement, no fallback) on n = 1551,
///    K = 4 with trained d = h = 10 models: k̄ = 10 (apply = 9.9× the window
///    work) 2.55 against 1.99 solves/s, batching wins 3/3; k̄ = 2 (2.0×)
///    8.06 against 7.84, even; k̄ = 1 (0.99×) 9.26 against 10.38, batching
///    loses 3/3;
///  * the served ddm-gnn (fp32 Cholesky local solves, 1/26 of the window
///    work) on n = 2266: 14.8-column windows took 68 ms p50, 3.7 ms per
///    block iteration of window work against 1.4 ms of preconditioner, for
///    ≈217 solves/s; one scalar FPCG solve took 3.6 ms p50, which two
///    workers turn into ≈500–550 solves/s.
inline constexpr double kBatchPaysFlopsPerRow = 2.0 * kFullWindowFlopsPerRow;

/// How many right-hand sides of an n-row operator are worth one block solve:
/// std::numeric_limits<int>::max() (no cap of its own) for FPCG when
/// `apply_flops` (one column's preconditioner apply) is at least
/// kBatchPaysFlopsPerRow·n, else 1. Lockstep block PCG/CG saves no
/// iterations and GMRES has no block form, so they always get 1.
int batch_width_for(KrylovMethod method, double apply_flops, la::Index n);

/// Lockstep block PCG (see file header). `b` is n×s, `x` holds the initial
/// guesses and the solutions. Returns one SolveResult per column;
/// result.iterations counts the iterations until THAT column converged.
std::vector<SolveResult> block_pcg(const CsrMatrix& a,
                                   const precond::Preconditioner& m,
                                   const la::MultiVector& b,
                                   la::MultiVector& x,
                                   const SolveOptions& opts = {});

/// Shared-subspace flexible block PCG (see file header). result.iterations
/// counts BLOCK iterations until that column converged; every returned
/// converged flag is backed by a recomputed true residual.
std::vector<SolveResult> block_flexible_pcg(const CsrMatrix& a,
                                            const precond::Preconditioner& m,
                                            const la::MultiVector& b,
                                            la::MultiVector& x,
                                            const SolveOptions& opts = {});

/// Block dispatch mirroring run_krylov: kPcg → block_pcg, kFpcg →
/// block_flexible_pcg, kCg → block_pcg with the identity preconditioner
/// (bit-identical to scalar CG per column). GMRES has no block form and
/// returns nullopt — callers fall back to a sequential loop.
std::optional<std::vector<SolveResult>> run_block_krylov(
    KrylovMethod method, const CsrMatrix& a, const precond::Preconditioner& m,
    const la::MultiVector& b, la::MultiVector& x,
    const SolveOptions& opts = {});

}  // namespace ddmgnn::solver
