#include "mg/vcycle.hpp"

#include <utility>

#include "common/error.hpp"
#include "la/vector_ops.hpp"
#include "obs/trace.hpp"

namespace ddmgnn::mg {

namespace {

// Chebyshev bounds on the D⁻¹A spectrum from the build-time power-iteration
// estimate: pad the top (the estimate approaches λmax from below), smooth
// down to λmax/30 (the hypre default ratio).
constexpr double kChebUpperPad = 1.1;
constexpr double kChebLowerRatio = 1.0 / 30.0;
// Pre- and post-smoothing polynomial degree. At K ≈ 1000–2000 subdomains
// ddm-lu took 34–35 Krylov iterations with degree 1, 31–32 with degree 2 and
// 30–31 with degree 3.
constexpr int kChebyshevDegree = 2;

}  // namespace

VCycle::VCycle(Hierarchy hierarchy) : h_(std::move(hierarchy)) {
  DDMGNN_CHECK(h_.num_coarse_levels() >= 1 && h_.coarsest_factor != nullptr,
               "vcycle: hierarchy has no factored coarsest level");
  for (int l = 0; l + 1 < h_.num_coarse_levels(); ++l) {
    DDMGNN_CHECK(h_.levels[l].lambda_max > 0.0,
                 "vcycle: intermediate level lacks smoother data");
  }
}

// Chebyshev polynomial of degree kChebyshevDegree on [λmax/30, 1.1·λ̂].
void VCycle::smooth(const CoarseLevel& level, std::span<const double> b,
                    std::span<double> x) const {
  const std::size_t n = x.size();
  const auto& inv_diag = level.inv_diag;
  std::vector<double> res(n);
  const double lmax = kChebUpperPad * level.lambda_max;
  const double lmin = kChebLowerRatio * lmax;
  const double theta = 0.5 * (lmax + lmin);
  const double delta = 0.5 * (lmax - lmin);
  const double sigma = theta / delta;
  double rho = 1.0 / sigma;
  std::vector<double> d(n);
  level.A.multiply(x, res);
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = inv_diag[i] * (b[i] - res[i]) / theta;
  }
  for (int k = 0;; ++k) {
    for (std::size_t i = 0; i < n; ++i) x[i] += d[i];
    if (k + 1 >= kChebyshevDegree) break;
    level.A.multiply(x, res);
    const double rho_next = 1.0 / (2.0 * sigma - rho);
    const double c1 = rho_next * rho;
    const double c2 = 2.0 * rho_next / delta;
    for (std::size_t i = 0; i < n; ++i) {
      d[i] = c1 * d[i] + c2 * inv_diag[i] * (b[i] - res[i]);
    }
    rho = rho_next;
  }
}

void VCycle::smooth_many(const CoarseLevel& level, const la::MultiVector& b,
                         la::MultiVector& x) const {
  const la::Index n = x.rows();
  const la::Index s = x.cols();
  const auto& inv_diag = level.inv_diag;
  la::MultiVector res(n, s);
  const double lmax = kChebUpperPad * level.lambda_max;
  const double lmin = kChebLowerRatio * lmax;
  const double theta = 0.5 * (lmax + lmin);
  const double delta = 0.5 * (lmax - lmin);
  const double sigma = theta / delta;
  double rho = 1.0 / sigma;
  la::MultiVector d(n, s);
  level.A.apply_many(x, res);
  for (la::Index j = 0; j < s; ++j) {
    auto dj = d.col(j);
    const auto bj = b.col(j);
    const auto rj = res.col(j);
    for (la::Index i = 0; i < n; ++i) {
      dj[i] = inv_diag[i] * (bj[i] - rj[i]) / theta;
    }
  }
  for (int k = 0;; ++k) {
    for (la::Index j = 0; j < s; ++j) {
      auto xj = x.col(j);
      const auto dj = d.col(j);
      for (la::Index i = 0; i < n; ++i) xj[i] += dj[i];
    }
    if (k + 1 >= kChebyshevDegree) break;
    level.A.apply_many(x, res);
    const double rho_next = 1.0 / (2.0 * sigma - rho);
    const double c1 = rho_next * rho;
    const double c2 = 2.0 * rho_next / delta;
    for (la::Index j = 0; j < s; ++j) {
      auto dj = d.col(j);
      const auto bj = b.col(j);
      const auto rj = res.col(j);
      for (la::Index i = 0; i < n; ++i) {
        dj[i] = c1 * dj[i] + c2 * inv_diag[i] * (bj[i] - rj[i]);
      }
    }
    rho = rho_next;
  }
}

void VCycle::cycle(int lvl, std::span<const double> r,
                   std::span<double> e) const {
  const int last = h_.num_coarse_levels() - 1;
  if (lvl == last) {
    obs::Span sp("mg.coarse_solve");
    sp.arg("level", static_cast<double>(lvl + 1));
    la::copy(r, e);
    h_.coarsest_factor->solve_inplace(e);
    return;
  }
  obs::Span sp("mg.level");
  sp.arg("level", static_cast<double>(lvl + 1));
  const CoarseLevel& level = h_.levels[lvl];
  const CoarseLevel& child = h_.levels[lvl + 1];
  const std::size_t n = e.size();

  la::fill(e, 0.0);
  smooth(level, r, e);

  std::vector<double> res(n);
  level.A.multiply(e, res);
  for (std::size_t i = 0; i < n; ++i) res[i] = r[i] - res[i];

  const std::size_t nc = static_cast<std::size_t>(child.A.rows());
  std::vector<double> rc(nc), ec(nc);
  child.R.multiply(res, rc);
  cycle(lvl + 1, rc, ec);
  child.P.multiply(ec, res);  // reuse res as the prolonged correction
  for (std::size_t i = 0; i < n; ++i) e[i] += res[i];

  smooth(level, r, e);
}

void VCycle::cycle_many(int lvl, const la::MultiVector& r,
                        la::MultiVector& e) const {
  const int last = h_.num_coarse_levels() - 1;
  const la::Index s = r.cols();
  if (lvl == last) {
    obs::Span sp("mg.coarse_solve");
    sp.arg("level", static_cast<double>(lvl + 1));
    e.resize(r.rows(), s);
    la::copy(r.data(), e.data());
    h_.coarsest_factor->solve_inplace_columns(e.data(), s);
    return;
  }
  obs::Span sp("mg.level");
  sp.arg("level", static_cast<double>(lvl + 1));
  const CoarseLevel& level = h_.levels[lvl];
  const CoarseLevel& child = h_.levels[lvl + 1];
  const la::Index n = r.rows();

  e.resize(n, s);
  e.fill(0.0);
  smooth_many(level, r, e);

  la::MultiVector res(n, s);
  level.A.apply_many(e, res);
  for (la::Index j = 0; j < s; ++j) {
    auto rj = res.col(j);
    const auto bj = r.col(j);
    for (la::Index i = 0; i < n; ++i) rj[i] = bj[i] - rj[i];
  }

  la::MultiVector rc, ec;
  child.R.apply_many(res, rc);
  cycle_many(lvl + 1, rc, ec);
  child.P.apply_many(ec, res);
  for (la::Index j = 0; j < s; ++j) {
    auto ej = e.col(j);
    const auto pj = res.col(j);
    for (la::Index i = 0; i < n; ++i) ej[i] += pj[i];
  }

  smooth_many(level, r, e);
}

double VCycle::apply_flops() const {
  const auto spmv = [](const la::CsrMatrix& m) {
    return 2.0 * static_cast<double>(m.nnz());
  };
  double flops = spmv(h_.levels[0].R) + spmv(h_.levels[0].P);
  for (int l = 0; l + 1 < h_.num_coarse_levels(); ++l) {
    // Two Chebyshev smooths, one residual, the transfers to the child level.
    const CoarseLevel& child = h_.levels[l + 1];
    flops += (2 * kChebyshevDegree + 1) * spmv(h_.levels[l].A) +
             spmv(child.R) + spmv(child.P);
  }
  const auto m = static_cast<double>(h_.coarsest_factor->size());
  return flops + 2.0 * m * m;
}

void VCycle::apply_add(std::span<const double> r, std::span<double> z) const {
  obs::Span sp("mg.cycle");
  sp.arg("levels", static_cast<double>(h_.num_coarse_levels()));
  const std::size_t n = r.size();
  DDMGNN_CHECK(n == static_cast<std::size_t>(h_.fine_rows) && z.size() == n,
               "vcycle apply_add: size mismatch");
  const CoarseLevel& top = h_.levels[0];
  const std::size_t n0 = static_cast<std::size_t>(top.A.rows());
  std::vector<double> rc(n0), e(n0);
  top.R.multiply(r, rc);
  cycle(0, rc, e);
  std::vector<double> corr(n);
  top.P.multiply(e, corr);
  for (std::size_t i = 0; i < n; ++i) z[i] += corr[i];
}

void VCycle::apply_add_many(const la::MultiVector& r,
                            la::MultiVector& z) const {
  obs::Span sp("mg.cycle");
  sp.arg("levels", static_cast<double>(h_.num_coarse_levels()));
  const la::Index n = r.rows();
  const la::Index s = r.cols();
  DDMGNN_CHECK(n == h_.fine_rows && z.rows() == n && z.cols() == s,
               "vcycle apply_add_many: shape mismatch");
  const CoarseLevel& top = h_.levels[0];
  la::MultiVector rc, e, corr;
  top.R.apply_many(r, rc);
  cycle_many(0, rc, e);
  top.P.apply_many(e, corr);
  for (la::Index j = 0; j < s; ++j) {
    auto zj = z.col(j);
    const auto cj = corr.col(j);
    for (la::Index i = 0; i < n; ++i) zj[i] += cj[i];
  }
}

}  // namespace ddmgnn::mg
