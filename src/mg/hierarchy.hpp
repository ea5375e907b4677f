// Smoothed-aggregation coarse space of Additive Schwarz (the ML/MueLu
// recipe). Level 0 is the fine operator; the first tentative prolongator is
// the Nicolaides partition-of-unity injection R0ᵀ built from the
// Decomposition, deeper levels come from greedy aggregation
// (partition::aggregate). Every tentative prolongator is smoothed once,
// P = (I − ω D⁻¹A) P_tent, and coarse operators are Galerkin triple products
// A_{ℓ+1} = Pᵀ A_ℓ P. The depth follows from the input: coarsening stops as
// soon as a level has at most kMaxCoarseRows rows, and that coarsest
// operator is factored dense (Cholesky). With K ≤ kMaxCoarseRows subdomains
// the result is a two-level method whose coarse basis is the Nicolaides
// basis smoothed once.
//
// Determinism: the build is bitwise-identical at any thread count. The only
// reduction it needs — the power-iteration eigenvalue estimate for ω — uses
// serial accumulation (see hierarchy.cpp); everything else (SpGEMM,
// transpose, aggregation, dense factorization) is deterministic by
// construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "la/csr.hpp"
#include "la/dense.hpp"
#include "partition/decomposition.hpp"

namespace ddmgnn::mg {

/// Coarsen until the coarsest operator has at most this many rows. At
/// K ≈ 1000–2000 one aggregation step already lands at 70–129 rows, so caps
/// from 130 to 512 build the same hierarchy; coarsening on to 5–8 rows cost
/// 1–2 extra Krylov iterations.
inline constexpr la::Index kMaxCoarseRows = 256;
/// Pass-1 aggregate size cap for partition::aggregate below level 1.
inline constexpr la::Index kAggregateTarget = 8;
/// Power-iteration sweeps for λ̂max(D⁻¹A), which sets the prolongator
/// smoothing weight ω = 4/(3·1.05·λ̂) and the Chebyshev smoother's bounds.
inline constexpr int kPowerIterations = 12;

/// One coarse level. P maps THIS level to the next-finer one (the fine grid
/// for levels[0]); R = Pᵀ. inv_diag / lambda_max are the D⁻¹ scaling and
/// λ̂max(D⁻¹A) the Chebyshev cycle smoother needs — populated on every level
/// except the coarsest (which is solved directly).
struct CoarseLevel {
  la::CsrMatrix A;
  la::CsrMatrix P;
  la::CsrMatrix R;
  std::vector<double> inv_diag;
  double lambda_max = 0.0;
};

struct Hierarchy {
  std::vector<CoarseLevel> levels;
  /// Dense Cholesky of levels.back().A.
  std::unique_ptr<la::DenseCholesky> coarsest_factor;
  la::Index fine_rows = 0;
  la::Offset fine_nnz = 0;

  int num_coarse_levels() const { return static_cast<int>(levels.size()); }
  /// rows / nnz per level, index 0 = fine grid (for stats reporting).
  std::vector<la::Index> level_rows() const;
  std::vector<la::Offset> level_nnz() const;
  std::size_t memory_bytes() const;
  std::size_t dense_factor_bytes() const;
};

/// The Nicolaides injection R0ᵀ as an n×K CSR matrix: row v carries the
/// partition-of-unity weight 1/multiplicity for every subdomain containing
/// v. This is the unsmoothed tentative prolongator of level 1.
la::CsrMatrix nicolaides_prolongator(const partition::Decomposition& dec);

/// Build the hierarchy for `a` seeded from `dec`; `seed` drives the power
/// iterations. Also publishes mg.level_rows / mg.level_nnz gauges (labels
/// "level=ℓ").
Hierarchy build_hierarchy(const la::CsrMatrix& a,
                          const partition::Decomposition& dec,
                          std::uint64_t seed);

}  // namespace ddmgnn::mg
