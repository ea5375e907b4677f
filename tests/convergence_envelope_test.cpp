// Parameterized convergence-envelope sweeps: across random seeds and problem
// sizes, the classical pipeline must stay inside known iteration envelopes.
// These are the regression rails for Table I's classical columns — if the
// partitioner, coarse space, FEM assembly or PCG drift, these trip first.
#include <gtest/gtest.h>

#include "fem/poisson.hpp"
#include "mesh/generator.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"
#include "precond/preconditioner.hpp"
#include "solver/krylov.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
using mesh::Point2;

struct EnvelopeCase {
  std::uint64_t seed;
  Index nodes;
  Index sub_nodes;
  int max_ddm_lu_iters;  // generous envelope for the classical method
};

class Envelope : public ::testing::TestWithParam<EnvelopeCase> {};

TEST_P(Envelope, DdmLuStaysWithinIterationEnvelope) {
  const auto c = GetParam();
  const mesh::Mesh m = mesh::generate_mesh_target_nodes(
      mesh::random_domain(c.seed), c.nodes, c.seed);
  const auto q = fem::sample_quadratic_data(c.seed);
  const auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return q.f(p); },
      [&](const Point2& p) { return q.g(p); });
  const auto dec = partition::decompose_target_size(
      m.adj_ptr(), m.adj(), c.sub_nodes, 2, c.seed);
  precond::AdditiveSchwarz ddm(
      prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>());
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res =
      solver::pcg(prob.A, ddm, prob.b, x, {.max_iterations = 500});
  EXPECT_TRUE(res.converged) << "seed " << c.seed;
  EXPECT_LE(res.iterations, c.max_ddm_lu_iters) << "seed " << c.seed;
  EXPECT_LT(fem::relative_residual(prob.A, prob.b, x), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, Envelope,
    ::testing::Values(EnvelopeCase{1, 1000, 300, 40},
                      EnvelopeCase{2, 1000, 300, 40},
                      EnvelopeCase{3, 2500, 300, 45},
                      EnvelopeCase{4, 2500, 500, 45},
                      EnvelopeCase{5, 5000, 300, 55},
                      EnvelopeCase{6, 5000, 700, 55},
                      EnvelopeCase{7, 9000, 300, 60},
                      EnvelopeCase{8, 9000, 500, 60}));

class CgGrowth : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CgGrowth, CgIterationsScaleLikeSqrtN) {
  // For 2D P1 Laplacians, cond(A) = O(h^-2) = O(N), so CG iterations grow
  // ~sqrt(N). Check the growth exponent lands in a sane band across seeds.
  const std::uint64_t seed = GetParam();
  int iters[2];
  const Index sizes[2] = {1200, 4800};  // 4x nodes -> ~2x iterations
  for (int i = 0; i < 2; ++i) {
    const mesh::Mesh m = mesh::generate_mesh_target_nodes(
        mesh::random_domain(seed), sizes[i], seed);
    const auto q = fem::sample_quadratic_data(seed);
    const auto prob = fem::assemble_poisson(
        m, [&](const Point2& p) { return q.f(p); },
        [&](const Point2& p) { return q.g(p); });
    std::vector<double> x(prob.b.size(), 0.0);
    const precond::IdentityPreconditioner identity;
    const auto res = solver::run_krylov(solver::KrylovMethod::kCg, prob.A,
                                        identity, prob.b, x,
                                        {.max_iterations = 5000});
    ASSERT_TRUE(res.converged);
    iters[i] = res.iterations;
  }
  const double growth = static_cast<double>(iters[1]) / iters[0];
  EXPECT_GT(growth, 1.3);
  EXPECT_LT(growth, 3.2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CgGrowth, ::testing::Values(11, 22, 33, 44));

}  // namespace
