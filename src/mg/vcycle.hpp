// Recursive V-cycle over a smoothed-aggregation Hierarchy, applied as the
// coarse correction of Additive Schwarz:
//   z += P0 · cycle(level 1 …) · P0ᵀ r
// Intermediate levels run a Chebyshev polynomial smoother (symmetric, equal
// pre/post degree, so the cycle operator stays SPD and PCG-safe); the
// coarsest level is solved by the dense Cholesky factor. With a single
// coarse level the cycle is exactly P0 (P0ᵀ A P0)⁻¹ P0ᵀ. There is no
// fine-grid smoother here by design: in the ASM sum the local subdomain
// solves (exact Cholesky, or DSS inference for ddm-gnn) ARE the fine-level
// smoothing.
//
// Concurrency: immutable after construction; every apply allocates its own
// per-level scratch, so one VCycle serves concurrent clients. Applies are
// bitwise-deterministic at any thread count (SpMV/SpMM + elementwise updates
// + dense backsolves only), and apply_add_many matches apply_add bitwise per
// column — block Krylov lockstep equivalence depends on it.
#pragma once

#include <cstddef>
#include <span>

#include "la/multivector.hpp"
#include "mg/hierarchy.hpp"

namespace ddmgnn::mg {

class VCycle {
 public:
  explicit VCycle(Hierarchy hierarchy);

  /// z += B_c r on the fine level.
  void apply_add(std::span<const double> r, std::span<double> z) const;
  /// Block form, column-for-column bitwise identical to apply_add.
  void apply_add_many(const la::MultiVector& r, la::MultiVector& z) const;

  /// Estimated flops of one single-column apply_add: 2 per stored entry of
  /// every SpMV the cycle runs, plus 2m² for the dense coarsest sweeps.
  double apply_flops() const;

  /// Bytes retained after setup (level operators, transfers, factor).
  std::size_t memory_bytes() const { return h_.memory_bytes(); }
  /// Bytes held in the dense coarsest factor.
  std::size_t dense_factor_bytes() const { return h_.dense_factor_bytes(); }

  const Hierarchy& hierarchy() const { return h_; }

 private:
  // e ← cycle approximation of A_lvl⁻¹ r (e is overwritten).
  void cycle(int lvl, std::span<const double> r, std::span<double> e) const;
  void cycle_many(int lvl, const la::MultiVector& r, la::MultiVector& e) const;
  void smooth(const CoarseLevel& level, std::span<const double> b,
              std::span<double> x) const;
  void smooth_many(const CoarseLevel& level, const la::MultiVector& b,
                   la::MultiVector& x) const;

  Hierarchy h_;
};

}  // namespace ddmgnn::mg
