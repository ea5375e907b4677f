// Krylov solver + classical preconditioner tests: convergence on FEM
// problems, history monotonicity, Algorithm-1 semantics, ASM (one/two level)
// correctness and scalability trend, IC(0)/Jacobi baselines.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "fem/poisson.hpp"
#include "la/skyline_cholesky.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"
#include "precond/ic0_precond.hpp"
#include "precond/preconditioner.hpp"
#include "solver/krylov.hpp"
#include "test_solvers.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
using mesh::Point2;

using test_util::plain_cg;

fem::PoissonProblem make_problem(std::uint64_t seed, double h = 0.06) {
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(seed), h, seed);
  const auto data = fem::sample_quadratic_data(seed);
  return fem::assemble_poisson(
      m, [&](const Point2& p) { return data.f(p); },
      [&](const Point2& p) { return data.g(p); });
}

struct MeshAndProblem {
  mesh::Mesh m;
  fem::PoissonProblem prob;
};

MeshAndProblem make_mesh_problem(std::uint64_t seed, double h = 0.06) {
  mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(seed), h, seed);
  const auto data = fem::sample_quadratic_data(seed);
  auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return data.f(p); },
      [&](const Point2& p) { return data.g(p); });
  return {std::move(m), std::move(prob)};
}

TEST(Cg, ConvergesAndMatchesDirectSolve) {
  const auto prob = make_problem(1);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res =
      plain_cg(prob.A, prob.b, x, {.max_iterations = 5000, .rel_tol = 1e-10});
  EXPECT_TRUE(res.converged);
  const la::SkylineCholesky chol(prob.A);
  const auto x_ref = chol.solve(prob.b);
  EXPECT_LT(la::dist2(x, x_ref) / la::norm2(x_ref), 1e-7);
}

TEST(Cg, HistoryStartsAtOneAndEndsBelowTol) {
  const auto prob = make_problem(2);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = plain_cg(prob.A, prob.b, x, {.rel_tol = 1e-6});
  ASSERT_TRUE(res.converged);
  ASSERT_FALSE(res.history.empty());
  EXPECT_NEAR(res.history.front(), 1.0, 1e-12);  // x0 = 0
  EXPECT_LE(res.history.back(), 1e-6);
  EXPECT_EQ(static_cast<int>(res.history.size()), res.iterations + 1);
}

TEST(Pcg, JacobiReducesIterationsVsCg) {
  const auto prob = make_problem(3);
  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  const auto plain = plain_cg(prob.A, prob.b, x1);
  const precond::JacobiPreconditioner jac(prob.A.diagonal());
  const auto pre = solver::pcg(prob.A, jac, prob.b, x2);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(pre.converged);
  EXPECT_LE(pre.iterations, plain.iterations);
}

TEST(Pcg, Ic0BeatsJacobi) {
  const auto prob = make_problem(4);
  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  const precond::JacobiPreconditioner jac(prob.A.diagonal());
  const precond::Ic0Preconditioner ic(prob.A);
  const auto rj = solver::pcg(prob.A, jac, prob.b, x1);
  const auto ri = solver::pcg(prob.A, ic, prob.b, x2);
  EXPECT_TRUE(ri.converged);
  EXPECT_LT(ri.iterations, rj.iterations);
}

TEST(Pcg, IdentityPreconditionerEqualsCg) {
  // Plain CG runs the PCG recurrence without a preconditioner (z is r
  // itself, <r, z> reuses ‖r‖²); PCG with the identity copies z = r and
  // takes the dot. The two branches must agree bit for bit; only the method
  // label differs.
  const auto prob = make_problem(5, 0.09);
  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  const auto cg = plain_cg(prob.A, prob.b, x1);
  const precond::IdentityPreconditioner id;
  const auto pcg_id = solver::pcg(prob.A, id, prob.b, x2);
  EXPECT_EQ(cg.method, "cg");
  EXPECT_EQ(pcg_id.method, "pcg+none");
  EXPECT_TRUE(cg.converged);
  EXPECT_EQ(cg.iterations, pcg_id.iterations);
  EXPECT_EQ(cg.final_relative_residual, pcg_id.final_relative_residual);
  EXPECT_EQ(cg.history, pcg_id.history);
  EXPECT_EQ(x1, x2);
}

TEST(Cg, ConvergedIsCheckedAgainstTheTrueResidual) {
  // 1e-16 lies below the attainable accuracy: the CG recurrence residual
  // still drops past it, but b − A·x never does. CG must report the true
  // residual and not converged.
  const auto prob = make_problem(7, 0.09);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res =
      plain_cg(prob.A, prob.b, x, {.max_iterations = 400, .rel_tol = 1e-16});
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 400);
  std::vector<double> r(prob.b.size());
  prob.A.multiply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = prob.b[i] - r[i];
  EXPECT_EQ(res.final_relative_residual, la::norm2(r) / la::norm2(prob.b));
}

TEST(AsmPrecond, TwoLevelLuConvergesFast) {
  auto [m, prob] = make_mesh_problem(6, 0.045);
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 400, 2, 6);
  precond::AdditiveSchwarz ddm_lu(
      prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>());
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = solver::pcg(prob.A, ddm_lu, prob.b, x, {.rel_tol = 1e-6});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 60);
  EXPECT_LT(fem::relative_residual(prob.A, prob.b, x), 1e-6);
}

TEST(AsmPrecond, TwoLevelBeatsOneLevelWithManySubdomains) {
  auto [m, prob] = make_mesh_problem(7, 0.04);
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 150, 2, 7);
  ASSERT_GT(dec.num_parts, 10);
  precond::AdditiveSchwarz one(prob.A, dec,
                               std::make_unique<precond::CholeskySubdomainSolver>(),
                               precond::AdditiveSchwarz::Config{false});
  precond::AdditiveSchwarz two(prob.A, dec,
                               std::make_unique<precond::CholeskySubdomainSolver>(),
                               precond::AdditiveSchwarz::Config{true});
  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  const auto r1 = solver::pcg(prob.A, one, prob.b, x1);
  const auto r2 = solver::pcg(prob.A, two, prob.b, x2);
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations, r1.iterations);
}

TEST(AsmPrecond, LargerOverlapConvergesFaster) {
  auto [m, prob] = make_mesh_problem(8, 0.045);
  int iters[2] = {0, 0};
  int idx = 0;
  for (const int overlap : {1, 4}) {
    const auto dec =
        partition::decompose_target_size(m.adj_ptr(), m.adj(), 300, overlap, 8);
    precond::AdditiveSchwarz ddm(
        prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>());
    std::vector<double> x(prob.b.size(), 0.0);
    iters[idx++] = solver::pcg(prob.A, ddm, prob.b, x).iterations;
  }
  EXPECT_LE(iters[1], iters[0]);
}

TEST(AsmPrecond, ApplyIsLinear) {
  auto [m, prob] = make_mesh_problem(9, 0.08);
  const auto dec = partition::decompose(m.adj_ptr(), m.adj(), 4, 2, 9);
  precond::AdditiveSchwarz ddm(
      prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>());
  const std::size_t n = prob.b.size();
  Rng rng(10);
  std::vector<double> u(n), v(n), zu(n), zv(n), zw(n), w(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = rng.uniform(-1, 1);
    v[i] = rng.uniform(-1, 1);
    w[i] = 2.0 * u[i] - 3.0 * v[i];
  }
  ddm.apply(u, zu);
  ddm.apply(v, zv);
  ddm.apply(w, zw);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(zw[i], 2.0 * zu[i] - 3.0 * zv[i], 1e-9);
  }
}

TEST(AsmPrecond, ApplyIsSymmetric) {
  // <M⁻¹u, v> == <u, M⁻¹v> — required for plain PCG validity (DDM-LU case).
  auto [m, prob] = make_mesh_problem(11, 0.09);
  const auto dec = partition::decompose(m.adj_ptr(), m.adj(), 4, 2, 11);
  precond::AdditiveSchwarz ddm(
      prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>());
  EXPECT_TRUE(ddm.is_symmetric());
  const std::size_t n = prob.b.size();
  Rng rng(12);
  std::vector<double> u(n), v(n), zu(n), zv(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = rng.uniform(-1, 1);
    v[i] = rng.uniform(-1, 1);
  }
  ddm.apply(u, zu);
  ddm.apply(v, zv);
  EXPECT_NEAR(la::dot(zu, v), la::dot(u, zv),
              1e-8 * std::abs(la::dot(zu, v)) + 1e-10);
}

TEST(FlexiblePcg, MatchesPcgForFixedSpdPreconditioner) {
  const auto prob = make_problem(13, 0.08);
  const precond::JacobiPreconditioner jac(prob.A.diagonal());
  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  const auto r1 = solver::pcg(prob.A, jac, prob.b, x1);
  const auto r2 = solver::flexible_pcg(prob.A, jac, prob.b, x2);
  EXPECT_TRUE(r2.converged);
  // Flexible PCG reduces to PCG for a constant SPD M (same Krylov space).
  EXPECT_NEAR(r1.iterations, r2.iterations, 2);
}

TEST(FlexiblePcg, FinalResidualIsTheTrueResidual) {
  auto [m, prob] = make_mesh_problem(8, 0.05);
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 300, 2, 8);
  const precond::AdditiveSchwarz ddm_lu(
      prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>());
  auto recomputed = [&](std::span<const double> x) {
    std::vector<double> r(prob.b.size());
    prob.A.multiply(x, r);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = prob.b[i] - r[i];
    return la::norm2(r) / la::norm2(prob.b);
  };
  struct Case {
    const char* name;
    bool flexible;
    bool fp32;
    int max_iterations;
  };
  for (const Case c : {Case{"pcg", false, false, 500},
                       Case{"fpcg-fp32", true, true, 500},
                       Case{"pcg-capped", false, false, 3},
                       Case{"fpcg-fp32-capped", true, true, 3}}) {
    const solver::SolveOptions opts{.max_iterations = c.max_iterations,
                                    .rel_tol = 1e-9,
                                    .precond_fp32 = c.fp32};
    std::vector<double> x(prob.b.size(), 0.0);
    const auto res =
        c.flexible ? solver::flexible_pcg(prob.A, ddm_lu, prob.b, x, opts)
                   : solver::pcg(prob.A, ddm_lu, prob.b, x, opts);
    EXPECT_DOUBLE_EQ(res.final_relative_residual, recomputed(x)) << c.name;
    EXPECT_EQ(res.converged, res.final_relative_residual <= opts.rel_tol)
        << c.name;
    EXPECT_EQ(res.converged, c.max_iterations > 3) << c.name;
  }
}

TEST(Gmres, ConvergesOnSpdProblem) {
  const auto prob = make_problem(15, 0.09);
  const precond::Ic0Preconditioner ic(prob.A);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res =
      solver::gmres(prob.A, ic, prob.b, x,
                    {.rel_tol = 1e-8, .gmres_restart = 40});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(fem::relative_residual(prob.A, prob.b, x), 1e-7);
}

TEST(Gmres, HandlesNonsymmetricSystems) {
  // Convection-ish perturbation of the FEM matrix (keeps it nonsingular).
  auto prob = make_problem(16, 0.1);
  auto vals = prob.A.values_mutable();
  Rng rng(17);
  for (auto& v : vals) v += 0.01 * rng.uniform(0.0, 1.0) * std::abs(v);
  const precond::IdentityPreconditioner id;
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res =
      solver::gmres(prob.A, id, prob.b, x,
                    {.max_iterations = 3000, .rel_tol = 1e-8,
                     .gmres_restart = 60});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(fem::relative_residual(prob.A, prob.b, x), 1e-7);
}

TEST(Solvers, IterationCountGrowsWithProblemSizeForPlainCg) {
  // Conditioning degrades with N (paper: CG column of Table I).
  const auto small = make_problem(18, 0.09);
  const auto large = make_problem(18, 0.04);
  std::vector<double> x1(small.b.size(), 0.0), x2(large.b.size(), 0.0);
  const auto r_small = plain_cg(small.A, small.b, x1);
  const auto r_large = plain_cg(large.A, large.b, x2);
  EXPECT_GT(r_large.iterations, r_small.iterations);
}

}  // namespace
