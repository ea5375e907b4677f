// Serving-configuration convergence suite (the bench_serving bugfix):
//   - the cached-session ddm-gnn configuration at bench smoke scale —
//     adaptive refine-until-contractive setup + mixed-precision applies on
//     an UNTRAINED model — converges on every solve. The untrained model is
//     the worst case the serving bench used to fail on: the adaptive setup
//     must detect the non-contractive subdomains and rescue them with the
//     exact Cholesky fallback.
//   - the fused layer2+aggregate kernel is BITWISE equal to the three-step
//     gather / layer-2 GEMM / segmented-aggregate path at any thread count
//     (per-row GEMM accumulation order is blocking-invariant and the
//     receiver-CSR reduction preserves per-destination order).
//   - a mixed-precision (fp32 preconditioner apply) solve still meets the
//     fp64 tolerance on the true residual, and the default Krylov selection
//     bumps PCG to flexible PCG when fp32 is on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/gnn_subdomain_solver.hpp"
#include "core/session_cache.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "obs/flags.hpp"
#include "obs/forensics.hpp"
#include "obs/trace.hpp"
#include "precond/asm_precond.hpp"
#include "solver/krylov.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
using mesh::Point2;

/// Restores the ambient thread count when a test overrides it.
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

struct MeshProblem {
  mesh::Mesh m;
  fem::PoissonProblem prob;
};

/// The serving bench's smoke-scale problem shape: an irregular random-domain
/// mesh around 800 nodes.
MeshProblem smoke_problem(std::uint64_t seed = 7, Index nodes = 800) {
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), nodes, seed);
  const auto q = fem::sample_quadratic_data(seed);
  auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return q.f(p); },
      [&](const Point2& p) { return q.g(p); });
  return {std::move(m), std::move(prob)};
}

/// The bench's served ddm-gnn configuration (bench/bench_serving.cpp):
/// adaptive refine-until-contractive setup plus fp32 preconditioner applies.
core::HybridConfig served_config(const gnn::DssModel& model) {
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-gnn";
  cfg.subdomain_target_nodes = 350;
  cfg.rel_tol = 1e-6;
  cfg.max_iterations = 500;
  cfg.track_history = false;
  cfg.model = &model;
  cfg.gnn_adaptive_refinement = true;
  cfg.precond_fp32 = true;
  return cfg;
}

double true_rel_residual(const la::CsrMatrix& A, std::span<const double> b,
                         std::span<const double> x) {
  std::vector<double> r(b.size());
  A.multiply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return la::norm2(r) / la::norm2(b);
}

TEST(ServingConvergence, CachedSessionDdmGnnConvergesAtSmokeScale) {
  auto [m, prob] = smoke_problem();
  // Untrained paper-shape model (k̄=10, d=10, hidden=10): the exact
  // configuration the serving bench used to fail every solve on.
  gnn::DssConfig mc;
  gnn::DssModel model(mc, /*seed=*/3);
  const core::HybridConfig cfg = served_config(model);

  core::SessionCache cache(/*byte_budget=*/1u << 30);
  auto session = cache.get_or_setup(m, prob, cfg);
  ASSERT_TRUE(session->ready());
  // fp32 applies make the preconditioner effectively nonlinear: the default
  // method must be the flexible variant.
  EXPECT_EQ(session->method(), solver::KrylovMethod::kFpcg);

  // Single-RHS path.
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = session->solve(prob.b, x);
  EXPECT_TRUE(res.converged)
      << "failure=" << obs::failure_reason_name(res.failure)
      << " iterations=" << res.iterations;
  EXPECT_LT(true_rel_residual(prob.A, prob.b, x), 1e-5);

  // Batched path (the bench's solve_many traffic), through the cache hit.
  auto again = cache.get_or_setup(m, prob, cfg);
  EXPECT_EQ(again.get(), session.get());
  Rng rng(99);
  std::vector<std::vector<double>> bs(4);
  for (auto& b : bs) {
    b.resize(prob.b.size());
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
  }
  std::vector<std::vector<double>> xs;
  const auto results = again->solve_many(bs, xs);
  ASSERT_EQ(results.size(), bs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].converged)
        << "rhs " << i
        << " failure=" << obs::failure_reason_name(results[i].failure);
    EXPECT_LT(true_rel_residual(prob.A, bs[i], xs[i]), 1e-5);
  }
}

TEST(ServingConvergence, FusedAggregateBitwiseEqualsTwoStepAtAnyThreadCount) {
  ThreadGuard guard;
  auto [m, prob] = smoke_problem(/*seed=*/11, /*nodes=*/500);
  const la::CsrMatrix pattern = gnn::adjacency_pattern(m.adj_ptr(), m.adj());
  gnn::GraphSample s;
  s.topo = gnn::build_topology(prob.A, m.points(), prob.dirichlet, &pattern);
  s.rhs.resize(prob.b.size());
  Rng rng(21);
  for (double& v : s.rhs) v = rng.uniform(-1.0, 1.0);
  const double norm = la::norm2(s.rhs);
  for (double& v : s.rhs) v /= norm;

  gnn::DssConfig mc;  // paper shape, untrained — bit patterns are what count
  gnn::DssModel model(mc, /*seed=*/3);
  gnn::DssWorkspace ws;

  model.set_fused_aggregate(false);
  std::vector<float> ref;
  set_num_threads(1);
  model.forward(s, ws, ref);
  ASSERT_FALSE(ref.empty());

  model.set_fused_aggregate(true);
  for (const int threads : {1, 2, 4}) {
    set_num_threads(threads);
    std::vector<float> fused;
    model.forward(s, ws, fused);
    ASSERT_EQ(fused.size(), ref.size()) << "threads=" << threads;
    EXPECT_EQ(std::memcmp(fused.data(), ref.data(),
                          ref.size() * sizeof(float)),
              0)
        << "fused kernel not bitwise at threads=" << threads;
  }
}

TEST(ServingConvergence, MixedPrecisionLuSolveMeetsFp64Tolerance) {
  auto [m, prob] = smoke_problem(/*seed=*/5, /*nodes=*/600);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 200;
  cfg.rel_tol = 1e-8;
  cfg.precond_fp32 = true;
  cfg.track_history = false;

  core::SolverSession session;
  session.setup(m, prob, cfg);
  // Symmetric preconditioner, but fp32 rounding breaks exact symmetry: the
  // trait-based default must pick flexible PCG.
  EXPECT_EQ(session.method(), solver::KrylovMethod::kFpcg);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = session.solve(prob.b, x);
  EXPECT_TRUE(res.converged)
      << "failure=" << obs::failure_reason_name(res.failure);
  // Convergence is declared on the recomputed true residual, so fp32
  // rounding cannot fake it.
  EXPECT_LT(true_rel_residual(prob.A, prob.b, x), 1e-7);
}

TEST(ServingConvergence, CostSkippedProbesKeepTheRouting) {
  // The adaptive setup skips the probes of a subdomain whose single
  // inference already fails the cost model. Routing must match what the
  // probing setup chose on these operators (values recorded from it): every
  // subdomain on the exact factor, every pass count at the floor of 0. The
  // probes themselves must still run wherever one inference passes the cost
  // model: the micro model is probed on every subdomain (one "dss.forward"
  // span per probe pass), the paper-shape model on none. No untrained model
  // contracts a subdomain, so none of these operators routes one to the GNN.
  gnn::DssConfig paper;  // k̄=10, d=10, hidden=10: always cost-skipped
  const gnn::DssModel paper_model(paper, /*seed=*/3);
  gnn::DssConfig micro;  // k̄=1, d=2, hidden=2: cheap enough to be probed
  micro.iterations = 1;
  micro.latent = 2;
  micro.hidden = 2;
  const gnn::DssModel micro_model(micro, /*seed=*/5);
  struct Case {
    std::uint64_t seed;
    Index nodes;
    Index ns;
    Index k;
  };
  for (const Case c : {Case{7, 800, 350, 2}, Case{7, 800, 100, 8},
                       Case{11, 2200, 350, 6}, Case{11, 2200, 100, 23}}) {
    auto [m, prob] = smoke_problem(c.seed, c.nodes);
    for (const gnn::DssModel* model : {&paper_model, &micro_model}) {
      core::HybridConfig cfg = served_config(*model);
      cfg.subdomain_target_nodes = c.ns;
      ASSERT_TRUE(cfg.gnn_cost_aware_fallback);
      core::SolverSession session;
      obs::TraceRecorder::instance().clear();
      obs::set_trace_enabled(true);
      session.setup(m, prob, cfg);
      obs::set_trace_enabled(false);
      Index forwards = 0;
      for (const auto& e : obs::TraceRecorder::instance().snapshot()) {
        forwards += std::strcmp(e.name, "dss.forward") == 0;
      }
      obs::TraceRecorder::instance().clear();
      const auto& schwarz = dynamic_cast<const precond::AdditiveSchwarz&>(
          session.preconditioner());
      const auto& local = dynamic_cast<const core::GnnSubdomainSolver&>(
          schwarz.local_solver());
      ASSERT_EQ(session.num_subdomains(), c.k) << c.nodes << "/" << c.ns;
      EXPECT_EQ(local.fallback_count(), c.k) << c.nodes << "/" << c.ns;
      EXPECT_EQ(local.refinement_schedule(),
                std::vector<int>(static_cast<std::size_t>(c.k), 0))
          << c.nodes << "/" << c.ns;
      if (model == &paper_model) {
        EXPECT_EQ(forwards, 0) << c.nodes << "/" << c.ns;
      } else {
        EXPECT_GE(forwards, c.k) << c.nodes << "/" << c.ns;
      }
    }
  }
}

}  // namespace
