// Tests of the batched multi-RHS solve engine: MultiVector packing and the
// fused SpMM, Preconditioner::apply_many column-equivalence for every
// preconditioner table entry, solve_many's path choice (a scalar loop,
// bitwise equal to looped solve(), wherever batch_width() is 1; block FPCG
// above 1), scalar PCG's true-residual check, the shared-subspace block
// flexible PCG, and the Richardson damping fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"
#include "la/multivector.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "partition/decomposition.hpp"
#include "precond/registry.hpp"
#include "solver/block_krylov.hpp"
#include "solver/stationary.hpp"
#include "test_solvers.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
using la::MultiVector;
using mesh::Point2;

struct SmallProblem {
  mesh::Mesh m;
  fem::PoissonProblem prob;
};

SmallProblem small_problem(std::uint64_t seed = 42, Index nodes = 900) {
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), nodes, seed);
  const auto q = fem::sample_quadratic_data(seed);
  auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return q.f(p); },
      [&](const Point2& p) { return q.g(p); });
  return {std::move(m), std::move(prob)};
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

gnn::DssModel tiny_model() {
  gnn::DssConfig mc;
  mc.iterations = 2;
  mc.latent = 4;
  mc.hidden = 4;
  return gnn::DssModel(mc, 7);
}

/// The sequential reference for solve_many: one scalar solve per
/// right-hand side, each from a zero guess.
std::pair<std::vector<solver::SolveResult>, std::vector<std::vector<double>>>
solve_each(const core::SolverSession& session,
           const std::vector<std::vector<double>>& rhs) {
  std::vector<solver::SolveResult> results;
  std::vector<std::vector<double>> xs;
  for (const auto& b : rhs) {
    xs.emplace_back(b.size(), 0.0);
    results.push_back(session.solve(b, xs.back()));
  }
  return {std::move(results), std::move(xs)};
}

using test_util::block_fpcg;

TEST(MultiVector, FromColumnsPacksAndKeepColumnsCompacts) {
  const Index n = 100, s = 3;
  std::vector<std::vector<double>> cols(s);
  for (Index j = 0; j < s; ++j) cols[j] = random_vector(n, 10 + j);
  MultiVector x = MultiVector::from_columns(cols);
  ASSERT_EQ(x.rows(), n);
  ASSERT_EQ(x.cols(), s);
  for (Index j = 0; j < s; ++j) {
    for (Index i = 0; i < n; ++i) EXPECT_EQ(x.at(i, j), cols[j][i]);
  }

  // Deflation compaction: keep columns 0 and 2.
  const std::vector<Index> keep{0, 2};
  x.keep_columns(keep);
  ASSERT_EQ(x.cols(), 2);
  for (Index i = 0; i < n; ++i) {
    EXPECT_EQ(x.at(i, 0), cols[0][i]);
    EXPECT_EQ(x.at(i, 1), cols[2][i]);
  }
}

TEST(MultiVector, ApplyManyMatchesPerColumnMultiply) {
  auto [m, prob] = small_problem(3, 700);
  const Index n = prob.A.rows();
  const Index s = 5;
  MultiVector x(n, s);
  for (Index j = 0; j < s; ++j) {
    la::copy(random_vector(n, 100 + j), x.col(j));
  }
  MultiVector y;
  prob.A.apply_many(x, y);
  ASSERT_EQ(y.rows(), n);
  ASSERT_EQ(y.cols(), s);
  std::vector<double> ref(n);
  for (Index j = 0; j < s; ++j) {
    prob.A.multiply(x.col(j), ref);
    const auto yj = y.col(j);
    for (Index i = 0; i < n; ++i) EXPECT_EQ(yj[i], ref[i]) << j;
  }
}

TEST(ApplyMany, EqualsLoopedApplyForEveryRegistryEntry) {
  auto [m, prob] = small_problem(5, 900);
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 250, 2, 3);
  const gnn::DssModel model = tiny_model();
  const Index n = prob.A.rows();
  const Index s = 4;
  MultiVector r(n, s);
  for (Index j = 0; j < s; ++j) la::copy(random_vector(n, 50 + j), r.col(j));

  const la::CsrMatrix mesh_pattern =
      gnn::adjacency_pattern(m.adj_ptr(), m.adj());
  for (const std::string& name : precond::preconditioner_names()) {
    const auto& traits = precond::preconditioner_traits(name);
    precond::PrecondContext ctx;
    ctx.A = &prob.A;
    ctx.coords = m.points();
    ctx.edge_pattern = &mesh_pattern;
    ctx.dirichlet = prob.dirichlet;
    if (traits.needs_decomposition) ctx.dec = &dec;
    if (traits.needs_model) ctx.model = &model;
    const auto p = precond::make_preconditioner(name, ctx);

    MultiVector z_block(n, s);
    p->apply_many(r, z_block);
    std::vector<double> z_ref(n);
    for (Index j = 0; j < s; ++j) {
      p->apply(r.col(j), z_ref);
      const auto zj = z_block.col(j);
      double scale = 0.0;
      for (Index i = 0; i < n; ++i) scale = std::max(scale, std::abs(z_ref[i]));
      for (Index i = 0; i < n; ++i) {
        EXPECT_NEAR(zj[i], z_ref[i], 1e-14 * (1.0 + scale))
            << name << " col " << j << " row " << i;
      }
    }
  }
}

TEST(SolveMany, FollowsBatchWidth) {
  // Width 1 (ddm-lu PCG, the served fp32 FPCG config): solve_many is the
  // loop of solve() calls, bitwise, with mixed seeded and unseeded columns
  // (an already-converged seed, a rough one, two zero starts including a
  // zero right-hand side). Width > 1 (raw ddm-gnn at the paper shape):
  // the columns run block FPCG.
  auto [m, prob] = small_problem(13, 1400);
  const std::size_t n = prob.b.size();
  std::vector<std::vector<double>> rhs(4, prob.b);
  std::fill(rhs[1].begin(), rhs[1].end(), 0.0);
  rhs[2] = random_vector(n, 99);
  for (double& v : rhs[3]) v *= -3.0;

  gnn::DssConfig mc;  // the pinned benchmark shape: k̄=10, d=10, hidden=10
  mc.iterations = 10;
  mc.latent = 10;
  mc.hidden = 10;
  const gnn::DssModel paper_shape(mc, /*seed=*/3);

  core::HybridConfig lu;
  lu.preconditioner = "ddm-lu";
  lu.subdomain_target_nodes = 300;
  lu.rel_tol = 1e-8;
  lu.track_history = true;
  core::HybridConfig served = lu;
  served.preconditioner = "ddm-gnn";
  served.model = &paper_shape;
  served.gnn_adaptive_refinement = true;
  served.gnn_cost_aware_fallback = true;
  served.precond_fp32 = true;
  for (const core::HybridConfig& cfg : {lu, served}) {
    SCOPED_TRACE(cfg.preconditioner);
    core::SolverSession session;
    session.setup(m, prob, cfg);
    ASSERT_EQ(session.batch_width(), 1);
    // Seeds: a solution from a first solve, and a rough random guess.
    std::vector<double> converged(n, 0.0);
    ASSERT_TRUE(session.solve(rhs[0], converged).converged);
    const std::vector<std::vector<double>> x0s{
        converged, {}, random_vector(n, 7), {}};

    std::vector<std::vector<double>> xs;
    const auto many = session.solve_many(rhs, xs, x0s);
    std::vector<solver::SolveResult> loop;
    std::vector<std::vector<double>> xs_loop;
    for (std::size_t j = 0; j < rhs.size(); ++j) {
      xs_loop.emplace_back(n, 0.0);
      loop.push_back(x0s[j].empty()
                         ? session.solve(rhs[j], xs_loop.back())
                         : session.solve(rhs[j], xs_loop.back(), x0s[j]));
      EXPECT_TRUE(loop.back().converged) << j;
    }
    ASSERT_EQ(many.size(), loop.size());
    for (std::size_t j = 0; j < loop.size(); ++j) {
      SCOPED_TRACE("col=" + std::to_string(j));
      EXPECT_EQ(many[j].method, loop[j].method);
      EXPECT_EQ(many[j].iterations, loop[j].iterations);
      EXPECT_EQ(many[j].converged, loop[j].converged);
      EXPECT_EQ(many[j].final_relative_residual,
                loop[j].final_relative_residual);
      EXPECT_EQ(many[j].history, loop[j].history);
      EXPECT_EQ(xs[j], xs_loop[j]);
    }
    EXPECT_EQ(many[1].iterations, 0);  // zero right-hand side
  }

  core::HybridConfig raw = lu;
  raw.preconditioner = "ddm-gnn";
  raw.model = &paper_shape;
  raw.rel_tol = 1e-6;
  raw.max_iterations = 40;  // untrained weights: the label is under test
  raw.track_history = false;
  core::SolverSession session;
  session.setup(m, prob, raw);
  ASSERT_GT(session.batch_width(), 1);
  std::vector<std::vector<double>> xs;
  const std::vector<std::vector<double>> two{rhs[2], rhs[3]};
  for (const auto& res : session.solve_many(two, xs)) {
    EXPECT_EQ(res.method.rfind("block-fpcg+ddm-gnn", 0), 0u) << res.method;
  }
  // One right-hand side has nothing to batch.
  const auto one = session.solve_many(std::span(two).first(1), xs);
  EXPECT_EQ(one[0].method, "fpcg+ddm-gnn");
}

TEST(ScalarPcg, TrueResidualCheckRestartsOnAMissAndCapsIterations) {
  // Scalar PCG stops on the recurrence residual only after ‖b − A·x‖ meets
  // the tolerance too. At 1e-8 no check misses; at 1e-15 the recurrence
  // meets the tolerance before b − A·x does and a restart converges; 1e-16
  // sits below the attainable accuracy, so the solve restarts until
  // max_iterations and reports not converged. Same with fp32 applies.
  auto [m, prob] = small_problem(21, 1400);
  std::vector<std::vector<double>> rhs(4, prob.b);
  for (double& v : rhs[1]) v *= -3.0;
  rhs[2] = random_vector(prob.b.size(), 5);
  rhs[3] = random_vector(prob.b.size(), 6);
  constexpr int kMaxIterations = 120;
  for (const bool fp32 : {false, true}) {
    for (const double rel_tol : {1e-8, 1e-15, 1e-16}) {
      core::HybridConfig cfg;
      cfg.preconditioner = "ddm-lu";
      cfg.subdomain_target_nodes = 300;
      cfg.rel_tol = rel_tol;
      cfg.max_iterations = kMaxIterations;
      cfg.precond_fp32 = fp32;
      cfg.method = solver::KrylovMethod::kPcg;  // fp32 alone would pick FPCG
      cfg.track_history = true;
      core::SolverSession session;
      session.setup(m, prob, cfg);
      const auto [seq, xs_seq] = solve_each(session, rhs);
      for (std::size_t j = 0; j < rhs.size(); ++j) {
        SCOPED_TRACE("fp32=" + std::to_string(fp32) +
                     " rel_tol=" + std::to_string(rel_tol) +
                     " col=" + std::to_string(j));
        EXPECT_EQ(seq[j].method, "pcg+ddm-lu");
        // The reported residual is the true one.
        EXPECT_EQ(seq[j].final_relative_residual,
                  fem::relative_residual(prob.A, rhs[j], xs_seq[j]));
        // A recurrence residual at or below rel_tol before the last
        // iteration means a check missed and the solve restarted.
        const auto& h = seq[j].history;
        const bool restarted =
            *std::min_element(h.begin(), h.end() - 1) <= rel_tol;
        EXPECT_EQ(restarted, rel_tol < 1e-8);
        EXPECT_EQ(seq[j].converged, rel_tol > 1e-16);
        if (!seq[j].converged) {
          EXPECT_EQ(seq[j].iterations, kMaxIterations);
        }
      }
    }
  }
}

TEST(BlockFpcg, SharedSubspaceConvergesEveryColumn) {
  auto [m, prob] = small_problem(17, 1400);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.method = solver::KrylovMethod::kFpcg;
  cfg.subdomain_target_nodes = 300;
  cfg.rel_tol = 1e-8;
  cfg.track_history = false;

  std::vector<std::vector<double>> rhs;
  rhs.push_back(prob.b);
  for (int j = 0; j < 5; ++j) {
    rhs.push_back(random_vector(prob.b.size(), 200 + j));
  }
  // A duplicated column: the direction block turns rank-deficient and the
  // MGS drop-path must handle it.
  rhs.push_back(prob.b);

  core::SolverSession session;
  session.setup(m, prob, cfg);
  std::vector<std::vector<double>> xs;
  const auto results = block_fpcg(session, prob.A, rhs, xs);
  const auto seq_results = solve_each(session, rhs).first;

  int max_block = 0, max_seq = 0;
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    EXPECT_TRUE(results[j].converged) << j;
    EXPECT_LT(fem::relative_residual(prob.A, rhs[j], xs[j]), 10 * cfg.rel_tol)
        << j;
    max_block = std::max(max_block, results[j].iterations);
    max_seq = std::max(max_seq, seq_results[j].iterations);
  }
  // The shared search space never needs more block iterations than the
  // hardest column needs alone (each column minimizes over a superset of
  // its own directions).
  EXPECT_LE(max_block, max_seq + 1);
}

TEST(BlockFpcg, WindowEvictionKeepsEveryColumnConverged) {
  // Jacobi keeps the iteration count high. The two live columns add two
  // directions per iteration, so past iteration 128 the window exceeds its
  // 256-column cap and drops its oldest blocks while the solve goes on.
  auto [m, prob] = small_problem(31, 4000);
  core::HybridConfig cfg;
  cfg.preconditioner = "jacobi";
  cfg.method = solver::KrylovMethod::kFpcg;
  cfg.rel_tol = 1e-10;
  cfg.track_history = false;

  std::vector<std::vector<double>> rhs;
  rhs.push_back(random_vector(prob.b.size(), 301));
  rhs.push_back(random_vector(prob.b.size(), 302));
  // An all-zero right-hand side: its stop threshold is rel_tol·1, so it
  // leaves the block at iteration 0 with x = 0 and never reaches the window.
  rhs.emplace_back(prob.b.size(), 0.0);

  core::SolverSession session;
  session.setup(m, prob, cfg);
  std::vector<std::vector<double>> xs;
  const auto results = block_fpcg(session, prob.A, rhs, xs);
  ASSERT_EQ(results.size(), rhs.size());

  int max_iterations = 0;
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    EXPECT_TRUE(results[j].converged) << j;
    // Converged inside the block solve, not through the scalar fallback.
    EXPECT_EQ(results[j].method, "block-fpcg+jacobi") << j;
    EXPECT_LE(fem::relative_residual(prob.A, rhs[j], xs[j]), cfg.rel_tol)
        << j;
    max_iterations = std::max(max_iterations, results[j].iterations);
  }
  EXPECT_GT(max_iterations, 140);  // well past the 256-direction cap
  EXPECT_EQ(results[2].iterations, 0);
  for (const double v : xs[2]) EXPECT_EQ(v, 0.0);
}

TEST(Richardson, PowerIterationDampingTamesDivergence) {
  auto [m, prob] = small_problem(23, 1000);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 250;
  core::SolverSession session;
  session.setup(m, prob, cfg);
  const auto& precond = session.preconditioner();

  solver::SolveOptions opts;
  opts.rel_tol = 1e-6;
  opts.max_iterations = 3000;
  opts.track_history = false;

  // A deliberately too-large damping factor must trip the divergence guard
  // long before the iteration cap instead of looping on garbage.
  std::vector<double> x(prob.b.size(), 0.0);
  const auto diverged = solver::stationary_iteration(prob.A, precond, prob.b,
                                                     x, opts, /*damping=*/10.0);
  EXPECT_FALSE(diverged.converged);
  EXPECT_LT(diverged.iterations, opts.max_iterations);

  // The power-iteration bound yields a contraction: ω ∈ (0, 1] here (the
  // two-level Schwarz spectrum reaches beyond 2) and the damped iteration
  // converges.
  const double omega = solver::power_iteration_damping(prob.A, precond);
  EXPECT_GT(omega, 0.0);
  EXPECT_LE(omega, 1.0);
  std::fill(x.begin(), x.end(), 0.0);
  const auto damped =
      solver::stationary_iteration(prob.A, precond, prob.b, x, opts, omega);
  EXPECT_TRUE(damped.converged);
  EXPECT_LT(fem::relative_residual(prob.A, prob.b, x), 1e-5);
}

}  // namespace
