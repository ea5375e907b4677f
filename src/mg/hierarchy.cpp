#include "mg/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "la/spgemm.hpp"
#include "la/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "partition/aggregate.hpp"

namespace ddmgnn::mg {

namespace {

// Σ_i f(i) over [0, n) in fixed blocks of 256 rows: each block sums in
// row order (blocks in parallel), then the block sums are added in block
// order. Unlike la::norm2's OpenMP reduction, whose combine order follows
// the team size, the result is the same bits at any thread count — the
// "hierarchy build is bitwise-identical at 1/2/4 threads" contract.
template <typename RowFn>
double blocked_sum(std::size_t n, const RowFn& f) {
  constexpr std::size_t kBlockRows = 256;
  std::vector<double> partial((n + kBlockRows - 1) / kBlockRows);
  parallel_for(static_cast<long>(partial.size()), [&](long blk) {
    const std::size_t begin = static_cast<std::size_t>(blk) * kBlockRows;
    const std::size_t end = std::min(n, begin + kBlockRows);
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) acc += f(i);
    partial[blk] = acc;
  }, 4);  // below 4 blocks the fork/join costs more than it saves
  double acc = 0.0;
  for (const double x : partial) acc += x;
  return acc;
}

std::vector<double> inverse_diagonal(const la::CsrMatrix& a) {
  std::vector<double> d = a.diagonal();
  for (std::size_t i = 0; i < d.size(); ++i) {
    DDMGNN_CHECK(d[i] != 0.0, "hierarchy: zero diagonal in level operator");
    d[i] = 1.0 / d[i];
  }
  return d;
}

// λ̂max(D⁻¹A) via the power_iteration_damping recipe (solver/stationary.cpp)
// with the Jacobi preconditioner inlined: w = D⁻¹A v/‖v‖ and ‖w‖ in one
// blocked pass per sweep.
double lambda_max_dinv_a(const la::CsrMatrix& a,
                         std::span<const double> inv_diag, int iterations,
                         std::uint64_t seed) {
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();
  Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<double> v(n), w(n);
  for (double& vi : v) vi = rng.uniform(-1.0, 1.0);
  double nv =
      std::sqrt(blocked_sum(n, [&](std::size_t i) { return v[i] * v[i]; }));
  double lambda = 1.0;
  for (int k = 0; k < iterations && nv != 0.0; ++k) {
    const double inv_nv = 1.0 / nv;
    lambda = std::sqrt(blocked_sum(n, [&](std::size_t i) {
      double av = 0.0;
      for (la::Offset e = rp[i]; e < rp[i + 1]; ++e) av += va[e] * v[ci[e]];
      w[i] = inv_diag[i] * av * inv_nv;
      return w[i] * w[i];
    }));
    if (!(lambda > 0.0) || !std::isfinite(lambda)) {
      lambda = 1.0;
      break;
    }
    v.swap(w);
    nv = lambda;
  }
  return lambda;
}

// P = (I − ω D⁻¹A) P_tent = P_tent − ω D⁻¹ (A P_tent). A carries a full
// diagonal (FEM assembly and Galerkin products both guarantee it), so row i
// of A·P_tent covers row i of P_tent's pattern and the sum is formed in place.
la::CsrMatrix smooth_prolongator(const la::CsrMatrix& a,
                                 std::span<const double> inv_diag,
                                 double omega, const la::CsrMatrix& p_tent) {
  la::CsrMatrix p = la::spgemm(a, p_tent);
  const auto rp = p.row_ptr();
  const auto ci = p.col_idx();
  const auto va = p.values_mutable();
  const auto tp = p_tent.row_ptr();
  const auto tc = p_tent.col_idx();
  const auto tv = p_tent.values();
  parallel_for(p.rows(), [&](long i) {
    const double scale = -omega * inv_diag[i];
    for (la::Offset k = rp[i]; k < rp[i + 1]; ++k) va[k] *= scale;
    la::Offset k = rp[i];
    for (la::Offset t = tp[i]; t < tp[i + 1]; ++t) {
      while (ci[k] < tc[t]) ++k;  // both rows sorted; tc[t] is in p's row
      va[k] += tv[t];
    }
  }, la::kParallelThreshold);
  return p;
}

la::CsrMatrix tentative_from_aggregates(const partition::Aggregation& agg) {
  const la::Index n = static_cast<la::Index>(agg.assignment.size());
  std::vector<la::Offset> row_ptr(static_cast<std::size_t>(n) + 1);
  for (la::Index i = 0; i <= n; ++i) row_ptr[i] = i;
  std::vector<la::Index> col_idx(agg.assignment.begin(), agg.assignment.end());
  std::vector<double> vals(static_cast<std::size_t>(n), 1.0);
  return la::CsrMatrix(n, agg.num_aggregates, std::move(row_ptr),
                       std::move(col_idx), std::move(vals));
}

std::size_t csr_bytes(const la::CsrMatrix& m) {
  return static_cast<std::size_t>(m.rows() + 1) * sizeof(la::Offset) +
         static_cast<std::size_t>(m.nnz()) *
             (sizeof(la::Index) + sizeof(double));
}

}  // namespace

la::CsrMatrix nicolaides_prolongator(const partition::Decomposition& dec) {
  const la::Index n = dec.num_nodes();
  std::vector<la::Offset> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& nodes : dec.subdomains) {
    for (const la::Index v : nodes) ++row_ptr[v + 1];
  }
  for (la::Index v = 0; v < n; ++v) row_ptr[v + 1] += row_ptr[v];
  std::vector<la::Index> col_idx(static_cast<std::size_t>(row_ptr[n]));
  std::vector<double> vals(col_idx.size());
  std::vector<la::Offset> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (la::Index p = 0; p < dec.num_parts; ++p) {
    for (const la::Index v : dec.subdomains[p]) {
      const la::Offset dst = cursor[v]++;
      col_idx[dst] = p;  // parts visited in ascending order ⇒ sorted rows
      vals[dst] = dec.inv_multiplicity[v];
    }
  }
  return la::CsrMatrix(n, dec.num_parts, std::move(row_ptr),
                       std::move(col_idx), std::move(vals));
}

std::vector<la::Index> Hierarchy::level_rows() const {
  std::vector<la::Index> out;
  out.reserve(levels.size() + 1);
  out.push_back(fine_rows);
  for (const auto& lvl : levels) out.push_back(lvl.A.rows());
  return out;
}

std::vector<la::Offset> Hierarchy::level_nnz() const {
  std::vector<la::Offset> out;
  out.reserve(levels.size() + 1);
  out.push_back(fine_nnz);
  for (const auto& lvl : levels) out.push_back(lvl.A.nnz());
  return out;
}

std::size_t Hierarchy::memory_bytes() const {
  std::size_t bytes = dense_factor_bytes();
  for (const auto& lvl : levels) {
    bytes += csr_bytes(lvl.A) + csr_bytes(lvl.P) + csr_bytes(lvl.R) +
             lvl.inv_diag.size() * sizeof(double);
  }
  return bytes;
}

std::size_t Hierarchy::dense_factor_bytes() const {
  if (!coarsest_factor) return 0;
  const auto k = static_cast<std::size_t>(coarsest_factor->size());
  return k * k * sizeof(double);
}

Hierarchy build_hierarchy(const la::CsrMatrix& a,
                          const partition::Decomposition& dec,
                          std::uint64_t seed) {
  DDMGNN_CHECK(a.rows() == dec.num_nodes(), "hierarchy: size mismatch");

  Hierarchy h;
  h.fine_rows = a.rows();
  h.fine_nnz = a.nnz();

  la::CsrMatrix p_tent = nicolaides_prolongator(dec);
  for (int lvl = 0;; ++lvl) {
    // `cur` is the operator of the level p_tent coarsens (fine grid for
    // lvl 0). Its smoother data also feeds the cycle, so persist it.
    const la::CsrMatrix& cur = lvl == 0 ? a : h.levels[lvl - 1].A;
    std::vector<double> inv_diag = inverse_diagonal(cur);
    const double lambda =
        lambda_max_dinv_a(cur, inv_diag, kPowerIterations, seed);
    // Classic SA smoothing weight 4/(3λmax), with the same 5% safety margin
    // power_iteration_damping applies to its estimate.
    const double omega = (4.0 / 3.0) / (1.05 * lambda);

    CoarseLevel next;
    next.P = smooth_prolongator(cur, inv_diag, omega, p_tent);
    next.R = next.P.transpose();
    next.A = la::spgemm(next.R, la::spgemm(cur, next.P));
    if (lvl >= 1) {
      h.levels[lvl - 1].inv_diag = std::move(inv_diag);
      h.levels[lvl - 1].lambda_max = lambda;
    }
    h.levels.push_back(std::move(next));

    const la::CsrMatrix& coarse = h.levels.back().A;
    if (coarse.rows() <= kMaxCoarseRows) break;
    const partition::Aggregation agg =
        partition::aggregate(coarse, kAggregateTarget);
    if (agg.num_aggregates >= coarse.rows()) break;  // no progress
    p_tent = tentative_from_aggregates(agg);
  }

  // The coarsest operator has at most kMaxCoarseRows rows (unless
  // aggregation stalled), so a dense direct solve stays cheap.
  h.coarsest_factor = std::make_unique<la::DenseCholesky>(
      la::DenseMatrix::from_csr(h.levels.back().A));

  auto& reg = obs::Registry::instance();
  const std::vector<la::Index> rows = h.level_rows();
  const std::vector<la::Offset> nnz = h.level_nnz();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string label = "level=" + std::to_string(i);
    reg.gauge("mg.level_rows", label).set(static_cast<double>(rows[i]));
    reg.gauge("mg.level_nnz", label).set(static_cast<double>(nnz[i]));
  }
  return h;
}

}  // namespace ddmgnn::mg
