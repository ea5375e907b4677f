// SessionCache behavior: hits return the *same* prepared session (setup not
// re-paid), distinct operators and configs miss, LRU eviction respects the
// byte budget, evicted-but-held sessions stay usable (aliased ownership),
// every HybridConfig field is part of the key, a failed setup leaves no
// entry behind, clear() empties the cache without touching held sessions,
// and a cached session's solve_many still equals looped solve() calls bit
// for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/session_cache.hpp"
#include "fem/poisson.hpp"
#include "gnn/dss_model.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"

namespace {

using namespace ddmgnn;
using la::Index;

la::CsrMatrix grid_laplacian(Index side, double shift) {
  const Index n = side * side;
  la::CooBuilder coo(n, n);
  for (Index r = 0; r < side; ++r) {
    for (Index c = 0; c < side; ++c) {
      const Index i = r * side + c;
      coo.add(i, i, 4.0 + shift);
      if (r > 0) coo.add(i, i - side, -1.0);
      if (r + 1 < side) coo.add(i, i + side, -1.0);
      if (c > 0) coo.add(i, i - 1, -1.0);
      if (c + 1 < side) coo.add(i, i + 1, -1.0);
    }
  }
  return std::move(coo).build();
}

core::HybridConfig lu_config() {
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 200;
  cfg.rel_tol = 1e-8;
  cfg.track_history = false;
  return cfg;
}

TEST(SessionCache, HitReturnsSamePreparedSessionWithoutReSetup) {
  core::SessionCache cache(1u << 30);
  const la::CsrMatrix A = grid_laplacian(24, 0.0);
  const core::HybridConfig cfg = lu_config();

  auto s1 = cache.get_or_setup(A, cfg);
  ASSERT_TRUE(s1->ready());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  const double setup_s = s1->setup_seconds();
  EXPECT_GT(setup_s, 0.0);

  auto s2 = cache.get_or_setup(A, cfg);
  // The same object, not an equivalent rebuild: setup was not re-paid.
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_EQ(s2->setup_seconds(), setup_s);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);

  // The cached session solves correctly against its own operator copy even
  // if the caller's matrix is gone.
  const std::vector<double> ones(A.rows(), 1.0);
  const std::vector<double> b = A.apply(ones);
  std::vector<double> x(A.rows(), 0.0);
  const auto res = s2->solve(b, x);
  EXPECT_TRUE(res.converged);
  for (Index i = 0; i < A.rows(); i += 37) {
    EXPECT_NEAR(x[i], 1.0, 1e-6) << i;
  }
}

TEST(SessionCache, DistinctOperatorsAndConfigsMiss) {
  core::SessionCache cache(1u << 30);
  const la::CsrMatrix a0 = grid_laplacian(20, 0.0);
  const la::CsrMatrix a1 = grid_laplacian(20, 1.0);   // same pattern, new vals
  const la::CsrMatrix a2 = grid_laplacian(21, 0.0);   // new shape
  const core::HybridConfig cfg = lu_config();

  auto s0 = cache.get_or_setup(a0, cfg);
  auto s1 = cache.get_or_setup(a1, cfg);
  auto s2 = cache.get_or_setup(a2, cfg);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_NE(s0.get(), s1.get());
  EXPECT_NE(s1.get(), s2.get());

  // A config change re-keys even on the same operator.
  core::HybridConfig looser = cfg;
  looser.rel_tol = 1e-4;
  auto s3 = cache.get_or_setup(a0, looser);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_NE(s0.get(), s3.get());

  // And the original keys all still hit.
  (void)cache.get_or_setup(a0, cfg);
  (void)cache.get_or_setup(a1, cfg);
  EXPECT_EQ(cache.stats().hits, 2u);
}

// The key is the whole HybridConfig: a config differing from a cached one in
// any single field is a miss (a fresh session), an identical copy a hit.
TEST(SessionCache, KeyCoversEveryConfigField) {
  core::SessionCache cache(1u << 30);
  const la::CsrMatrix A = grid_laplacian(12, 0.0);
  core::HybridConfig base;
  base.preconditioner = "jacobi";  // cheap setup; ignores the GNN fields
  // Binding every field pins the field count: a field added to HybridConfig
  // breaks this line until it gets a mutation below.
  [[maybe_unused]] const auto& [preconditioner, method, subdomain_target_nodes,
                                overlap, rel_tol, max_iterations,
                                gmres_restart, model, gnn_refinement_steps,
                                gnn_normalize, gnn_adaptive_refinement,
                                gnn_cost_aware_fallback, precond_fp32, seed,
                                track_history] = base;
  const gnn::DssModel dss(gnn::DssConfig{}, 1);
  std::vector<std::pair<std::string, core::HybridConfig>> variants;
  const auto vary = [&](const char* field, auto mutate) {
    core::HybridConfig cfg = base;
    mutate(cfg);
    variants.emplace_back(field, cfg);
  };
  vary("preconditioner", [](auto& c) { c.preconditioner = "none"; });
  vary("method", [](auto& c) { c.method = solver::KrylovMethod::kFpcg; });
  vary("subdomain_target_nodes",
       [](auto& c) { c.subdomain_target_nodes = 150; });
  vary("overlap", [](auto& c) { c.overlap = 1; });
  vary("rel_tol", [](auto& c) { c.rel_tol = 1e-5; });
  vary("max_iterations", [](auto& c) { c.max_iterations = 123; });
  vary("gmres_restart", [](auto& c) { c.gmres_restart = 20; });
  vary("model", [&](auto& c) { c.model = &dss; });
  vary("gnn_refinement_steps", [](auto& c) { c.gnn_refinement_steps = 1; });
  vary("gnn_normalize", [](auto& c) { c.gnn_normalize = false; });
  vary("gnn_adaptive_refinement",
       [](auto& c) { c.gnn_adaptive_refinement = true; });
  vary("gnn_cost_aware_fallback",
       [](auto& c) { c.gnn_cost_aware_fallback = false; });
  vary("precond_fp32", [](auto& c) { c.precond_fp32 = true; });
  vary("seed", [](auto& c) { c.seed = 7; });
  vary("track_history", [](auto& c) { c.track_history = false; });
  ASSERT_EQ(variants.size(), 15u);

  const auto base_session = cache.get_or_setup(A, base);
  std::vector<const core::SolverSession*> sessions;
  for (const auto& [field, cfg] : variants) {
    ASSERT_FALSE(cfg == base) << field;
    const std::size_t misses = cache.stats().misses;
    const auto s = cache.get_or_setup(A, cfg);
    EXPECT_EQ(cache.stats().misses, misses + 1) << field;
    EXPECT_NE(s.get(), base_session.get()) << field;
    EXPECT_EQ(std::count(sessions.begin(), sessions.end(), s.get()), 0)
        << field;
    sessions.push_back(s.get());
  }
  EXPECT_EQ(cache.stats().hits, 0u);

  // Identical copies hit their own entries.
  const core::HybridConfig copy = base;
  EXPECT_EQ(cache.get_or_setup(A, copy).get(), base_session.get());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const core::HybridConfig cfg = variants[i].second;
    EXPECT_EQ(cache.get_or_setup(A, cfg).get(), sessions[i])
        << variants[i].first;
  }
  EXPECT_EQ(cache.stats().hits, 1u + variants.size());
  EXPECT_EQ(cache.stats().misses, 1u + variants.size());
}

TEST(SessionCache, LruEvictsUnderByteBudgetAndHeldSessionsSurvive) {
  const la::CsrMatrix a0 = grid_laplacian(22, 0.0);
  const la::CsrMatrix a1 = grid_laplacian(22, 1.0);
  const la::CsrMatrix a2 = grid_laplacian(22, 2.0);
  const core::HybridConfig cfg = lu_config();

  // Budget sized for about two prepared sessions.
  std::size_t one_entry;
  {
    core::SessionCache probe(1u << 30);
    (void)probe.get_or_setup(a0, cfg);
    one_entry = probe.size_bytes();
    ASSERT_GT(one_entry, 0u);
  }
  core::SessionCache cache(2 * one_entry + one_entry / 2);

  auto s0 = cache.get_or_setup(a0, cfg);
  (void)cache.get_or_setup(a1, cfg);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Third insert exceeds the budget: the least-recently-used entry (a0) is
  // evicted.
  (void)cache.get_or_setup(a2, cfg);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LE(cache.size_bytes(), 2 * one_entry + one_entry / 2);

  (void)cache.get_or_setup(a1, cfg);  // still resident
  EXPECT_EQ(cache.stats().hits, 1u);
  (void)cache.get_or_setup(a0, cfg);  // evicted: a fresh miss
  EXPECT_EQ(cache.stats().misses, 4u);

  // The evicted-but-held session (s0 from the first insert) is alive and
  // solves — eviction drops the cache's reference, not the caller's.
  const std::vector<double> ones(a0.rows(), 1.0);
  const std::vector<double> b = a0.apply(ones);
  std::vector<double> x(a0.rows(), 0.0);
  EXPECT_TRUE(s0->ready());
  const auto res = s0->solve(b, x);
  EXPECT_TRUE(res.converged);
}

TEST(SessionCache, LruRecencyOrderGovernsEviction) {
  const la::CsrMatrix a0 = grid_laplacian(22, 0.0);
  const la::CsrMatrix a1 = grid_laplacian(22, 1.0);
  const la::CsrMatrix a2 = grid_laplacian(22, 2.0);
  const core::HybridConfig cfg = lu_config();
  std::size_t one_entry;
  {
    core::SessionCache probe(1u << 30);
    (void)probe.get_or_setup(a0, cfg);
    one_entry = probe.size_bytes();
  }
  core::SessionCache cache(2 * one_entry + one_entry / 2);
  (void)cache.get_or_setup(a0, cfg);
  (void)cache.get_or_setup(a1, cfg);
  (void)cache.get_or_setup(a0, cfg);  // touch a0: a1 becomes LRU
  (void)cache.get_or_setup(a2, cfg);  // evicts a1, not a0
  (void)cache.get_or_setup(a0, cfg);
  EXPECT_EQ(cache.stats().hits, 2u);  // both a0 touches after the insert
  (void)cache.get_or_setup(a1, cfg);
  EXPECT_EQ(cache.stats().misses, 4u);  // a1 had to be rebuilt
}

TEST(SessionCache, OversizedSingleEntryIsAdmitted) {
  core::SessionCache cache(/*byte_budget=*/1);  // everything is oversized
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  auto s = cache.get_or_setup(A, lu_config());
  EXPECT_TRUE(s->ready());
  EXPECT_EQ(cache.size(), 1u);  // admitted despite the budget
  (void)cache.get_or_setup(A, lu_config());
  EXPECT_EQ(cache.stats().hits, 1u);
}

// A failed setup unpublishes its entry: the key stays retryable (the
// second call re-runs setup instead of finding a dead once_flag), no bytes
// are left behind, and a valid config on the same operator caches normally.
TEST(SessionCache, FailedSetupIsUnpublishedAndRetryable) {
  core::SessionCache cache(1u << 30);
  const la::CsrMatrix A = grid_laplacian(14, 0.0);
  core::HybridConfig bogus = lu_config();
  bogus.preconditioner = "bogus";

  EXPECT_THROW((void)cache.get_or_setup(A, bogus), ContractError);
  EXPECT_THROW((void)cache.get_or_setup(A, bogus), ContractError);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const auto s1 = cache.get_or_setup(A, lu_config());
  EXPECT_TRUE(s1->ready());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.get_or_setup(A, lu_config()).get(), s1.get());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(cache.size_bytes(), 0u);
}

TEST(SessionCache, ClearEmptiesCacheAndHeldSessionsStillSolve) {
  core::SessionCache cache(1u << 30);
  const la::CsrMatrix a0 = grid_laplacian(18, 0.0);
  const la::CsrMatrix a1 = grid_laplacian(18, 1.0);
  const core::HybridConfig cfg = lu_config();
  const auto s0 = cache.get_or_setup(a0, cfg);
  (void)cache.get_or_setup(a1, cfg);
  ASSERT_EQ(cache.size(), 2u);
  ASSERT_GT(cache.size_bytes(), 0u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);  // clear() is not eviction

  // The session obtained before clear() still solves to tolerance.
  const std::vector<double> ones(a0.rows(), 1.0);
  const std::vector<double> b = a0.apply(ones);
  std::vector<double> x(a0.rows(), 0.0);
  const auto res = s0->solve(b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.final_relative_residual, cfg.rel_tol);
  for (Index i = 0; i < a0.rows(); i += 31) {
    EXPECT_NEAR(x[i], 1.0, 1e-6) << i;
  }

  // Its key is gone: the next lookup is a miss that prepares a new session.
  const std::size_t misses = cache.stats().misses;
  const auto fresh = cache.get_or_setup(a0, cfg);
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_NE(fresh.get(), s0.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SessionCache, MeshKeyedLookupHitsAndMatchesDirectSetup) {
  const std::uint64_t seed = 31;
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), 800, seed);
  const auto q = fem::sample_quadratic_data(seed);
  const auto prob = fem::assemble_poisson(
      m, [&](const mesh::Point2& p) { return q.f(p); },
      [&](const mesh::Point2& p) { return q.g(p); });
  const core::HybridConfig cfg = lu_config();

  core::SessionCache cache(1u << 30);
  auto s1 = cache.get_or_setup(m, prob, cfg);
  auto s2 = cache.get_or_setup(m, prob, cfg);
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_EQ(cache.stats().hits, 1u);

  // The cached session reproduces the direct mesh-path session exactly.
  core::SolverSession direct;
  direct.setup(m, prob, cfg);
  std::vector<double> x_cache(prob.b.size(), 0.0),
      x_direct(prob.b.size(), 0.0);
  const auto r_cache = s1->solve(prob.b, x_cache);
  const auto r_direct = direct.solve(prob.b, x_direct);
  EXPECT_EQ(r_cache.iterations, r_direct.iterations);
  for (std::size_t i = 0; i < x_cache.size(); ++i) {
    ASSERT_EQ(x_cache[i], x_direct[i]) << i;
  }
}

// Mesh-keyed and matrix-keyed lookups prepare sessions over *different*
// graphs (mesh adjacency vs matrix pattern) — identical (A, cfg, mask,
// coords) must still key two distinct entries, never alias.
TEST(SessionCache, MeshAndMatrixKeyedLookupsDoNotCollide) {
  const std::uint64_t seed = 41;
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), 700, seed);
  const auto q = fem::sample_quadratic_data(seed);
  const auto prob = fem::assemble_poisson(
      m, [&](const mesh::Point2& p) { return q.f(p); },
      [&](const mesh::Point2& p) { return q.g(p); });
  const core::HybridConfig cfg = lu_config();

  core::SessionCache cache(1u << 30);
  core::AlgebraicOptions opts;
  opts.dirichlet = prob.dirichlet;
  opts.coordinates = m.points();
  auto s_matrix = cache.get_or_setup(prob.A, cfg, opts);   // matrix graph
  auto s_mesh = cache.get_or_setup(m, prob, cfg);          // mesh graph
  EXPECT_NE(s_matrix.get(), s_mesh.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // Each re-lookup hits its own entry.
  EXPECT_EQ(cache.get_or_setup(prob.A, cfg, opts).get(), s_matrix.get());
  EXPECT_EQ(cache.get_or_setup(m, prob, cfg).get(), s_mesh.get());
  EXPECT_EQ(cache.stats().hits, 2u);
  // And the mesh-keyed entry matches the direct mesh-path session.
  core::SolverSession direct;
  direct.setup(m, prob, cfg);
  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  EXPECT_EQ(s_mesh->solve(prob.b, x1).iterations,
            direct.solve(prob.b, x2).iterations);
}

TEST(SessionCache, CachedSessionSolveManyEqualsLoopedSolves) {
  core::SessionCache cache(1u << 30);
  const la::CsrMatrix A = grid_laplacian(26, 0.0);
  auto session = cache.get_or_setup(A, lu_config());

  std::vector<std::vector<double>> rhs(4);
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    rhs[j].resize(A.rows());
    for (Index i = 0; i < A.rows(); ++i) {
      rhs[j][i] = std::sin(0.1 * static_cast<double>(i + 1) *
                           static_cast<double>(j + 1));
    }
  }

  std::vector<solver::SolveResult> res_seq;
  std::vector<std::vector<double>> xs_seq, xs_blk;
  for (const auto& b : rhs) {
    xs_seq.emplace_back(b.size(), 0.0);
    res_seq.push_back(session->solve(b, xs_seq.back()));
  }
  const auto res_blk = session->solve_many(rhs, xs_blk);
  ASSERT_EQ(res_seq.size(), rhs.size());
  ASSERT_EQ(res_blk.size(), rhs.size());
  // A PCG session's batch width is 1, so solve_many is the loop of solve()
  // calls, bit for bit.
  EXPECT_EQ(session->batch_width(), 1);
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    EXPECT_TRUE(res_seq[j].converged) << j;
    EXPECT_TRUE(res_blk[j].converged) << j;
    EXPECT_EQ(res_seq[j].iterations, res_blk[j].iterations) << j;
    EXPECT_EQ(res_seq[j].final_relative_residual,
              res_blk[j].final_relative_residual)
        << j;
    EXPECT_EQ(xs_seq[j], xs_blk[j]) << j;
  }
}

}  // namespace
